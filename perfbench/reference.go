package main

import (
	_ "embed"
	"encoding/json"
)

// reference.json holds the five longest-path delays (ns) of the table
// workload's circuit (s35932 at scale 0.05), recorded from the analysis
// when the benchmark was defined. A table op whose delay moves more than
// refTolerance from them fails, which is the repository's bench-gate
// tolerance for delay drift.
//
//go:embed reference.json
var referenceJSON []byte

const refTolerance = 0.005

var referenceNs = func() map[string]float64 {
	var ref struct {
		LongestPathNs map[string]float64 `json:"longest_path_ns"`
	}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic("perfbench: reference.json: " + err.Error())
	}
	return ref.LongestPathNs
}()

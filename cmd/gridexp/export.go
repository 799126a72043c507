package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/scenario"
)

// exportDoc is the machine-readable product of a gridexp invocation
// (-out results.json): every study run in study order, each as its
// label, the scenario spec it ran and its result, so downstream tooling
// reads JSON instead of scraping tables and any run re-runs from its
// spec alone. A -find-saturation search adds its result.
type exportDoc struct {
	Runs       []experiment.Outcome       `json:"runs"`
	Saturation *scenario.SaturationResult `json:"saturation,omitempty"`
}

// writeFile creates path, fills it, and reports what was written there.
func writeFile(path, what string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s written to %s\n", what, path)
	return nil
}

// indentedJSON returns a fill that encodes v as indented JSON.
func indentedJSON(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(v)
	}
}

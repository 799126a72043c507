package experiment

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/metrics"
)

// WriteCSV exports the experiment outcomes as CSV files in dir — one file
// per reproduced artefact (table3.csv, fig8.csv, fig9.csv, fig10.csv,
// dispatch.csv) — for plotting the paper's line charts externally.
func WriteCSV(dir string, outs []Outcome) error {
	if len(outs) == 0 {
		return fmt.Errorf("experiment: no outcomes to export")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	eps := func(r metrics.Report) float64 { return r.Epsilon }
	ups := func(r metrics.Report) float64 { return r.Upsilon }
	beta := func(r metrics.Report) float64 { return r.Beta }
	files := []struct {
		file string
		cols []column
	}{
		{"table3.csv", []column{{"eps_", eps}, {"ups_", ups}, {"beta_", beta}}},
		{"fig8.csv", []column{{"exp", eps}}},
		{"fig9.csv", []column{{"exp", ups}}},
		{"fig10.csv", []column{{"exp", beta}}},
	}
	for _, f := range files {
		if err := writeSeries(filepath.Join(dir, f.file), outs, f.cols); err != nil {
			return err
		}
	}
	return writeDispatch(filepath.Join(dir, "dispatch.csv"), outs)
}

func writeRows(path string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// column is one per-experiment CSV column: its header is the prefix
// followed by the experiment ID.
type column struct {
	prefix string
	value  func(metrics.Report) float64
}

// writeSeries writes one row per resource plus the grid total, with the
// given columns repeated for every experiment.
func writeSeries(path string, outs []Outcome, cols []column) error {
	header := []string{"resource"}
	for _, o := range outs {
		for _, c := range cols {
			header = append(header, c.prefix+strconv.Itoa(o.Setup.ID))
		}
	}
	rows := [][]string{header}
	for _, name := range append(namesOf(outs[0].Report), "Total") {
		row := []string{name}
		for _, o := range outs {
			rep := o.Report.Total
			if name != "Total" {
				rep, _ = o.Report.ResourceByName(name)
			}
			for _, c := range cols {
				row = append(row, fmtF(c.value(rep)))
			}
		}
		rows = append(rows, row)
	}
	return writeRows(path, rows)
}

func writeDispatch(path string, outs []Outcome) error {
	header := []string{"resource"}
	for _, o := range outs {
		header = append(header, "exp"+strconv.Itoa(o.Setup.ID))
	}
	counts := make([]map[string]int, len(outs))
	for i, o := range outs {
		counts[i] = map[string]int{}
		for _, d := range o.Dispatches {
			counts[i][d.Resource]++
		}
	}
	rows := [][]string{header}
	for _, name := range namesOf(outs[0].Report) {
		row := []string{name}
		for i := range outs {
			row = append(row, strconv.Itoa(counts[i][name]))
		}
		rows = append(rows, row)
	}
	return writeRows(path, rows)
}

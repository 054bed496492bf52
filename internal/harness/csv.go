package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"qcsim/internal/core"
)

// CSV export: each experiment's structured results can be written as a
// CSV file for external plotting, mirroring the paper's figures. A row
// struct is the only description of its CSV row: the csv tags name the
// columns in field order, and csv:"-" leaves a field out.

// ExportCSV runs the data-producing experiments and writes one CSV per
// figure into dir.
func ExportCSV(dir string, opt Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		rows func(Options) (any, error)
	}{
		{"fig7_abs_ratio.csv", rowsOf(Fig7Results)},
		{"fig8_rel_ratio.csv", rowsOf(Fig8Results)},
		{"fig10_solutions_ratio.csv", rowsOf(Fig10Results)},
		{"fig11_rates.csv", rowsOf(Fig11Results)},
		{"table2.csv", rowsOf(Table2Results)},
		{"fig16_strong_scaling.csv", rowsOf(Fig16Results)},
		{"fig16w_worker_scaling.csv", rowsOf(WorkerScalingResults)},
		{"sweep_codec_reduction.csv", rowsOf(SweepResults)},
		{"batch.csv", rowsOf(BatchResults)},
		{"sampling.csv", rowsOf(SamplingResults)},
		{"spill.csv", rowsOf(SpillResults)},
		{"crossover.csv", rowsOf(CrossoverResults)},
		// Fig. 6 is closed-form; export the curves too.
		{"fig6_fidelity_bounds.csv", func(Options) (any, error) { return fig6Rows(), nil }},
	}
	for _, f := range files {
		rows, err := f.rows(opt)
		if err != nil {
			return err
		}
		fp, err := os.Create(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		if err := writeCSV(fp, rows); err != nil {
			fp.Close()
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if err := fp.Close(); err != nil {
			return err
		}
	}
	return nil
}

// rowsOf adapts an experiment's typed results to ExportCSV's list.
func rowsOf[T any](results func(Options) ([]T, error)) func(Options) (any, error) {
	return func(opt Options) (any, error) { return results(opt) }
}

// fig6Row is one point of a Fig. 6 curve: the Eq. 11 bound after Gates
// gates at a constant per-gate bound.
type fig6Row struct {
	Gates       int     `csv:"gates"`
	Bound       float64 `csv:"bound"`
	FidelityLow float64 `csv:"fidelity_lower_bound"`
}

// fig6Rows samples each Fig. 6 curve every 250 gates up to 5000.
func fig6Rows() []fig6Row {
	var rows []fig6Row
	for _, d := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		curve := core.FidelityCurve(d, 5000)
		for g := 250; g <= len(curve); g += 250 {
			rows = append(rows, fig6Row{Gates: g, Bound: d, FidelityLow: curve[g-1]})
		}
	}
	return rows
}

// writeCSV writes rows, a slice of structs, as a header of the fields'
// csv tags and one record per element, each field formatted by its type.
func writeCSV(w io.Writer, rows any) error {
	v := reflect.ValueOf(rows)
	t := v.Type().Elem()
	var cols []int
	var header []string
	for i := 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("csv"); name != "-" {
			cols = append(cols, i)
			header = append(header, name)
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(cols))
	for r := 0; r < v.Len(); r++ {
		for j, i := range cols {
			rec[j] = csvField(v.Index(r).Field(i).Interface())
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func csvField(x any) string {
	switch x := x.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return fmtF(x)
	case bool:
		return strconv.FormatBool(x)
	case time.Duration:
		return fmtF(x.Seconds())
	}
	panic(fmt.Sprintf("harness: no CSV format for %T", x))
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Command experiments regenerates the paper's evaluation artifacts on the
// simulator substrate: every table and figure of Sec. 5 plus the design
// ablations (-id ablations). Its output is byte-identical run to run;
// the test beside it pins -id all in every format against testdata/.
//
// Examples:
//
//	experiments -id table6
//	experiments -id fig5
//	experiments -id all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"haxconn/internal/experiments"
	"haxconn/internal/report"
)

var artifacts = []string{
	"fig1", "table2", "fig3", "fig4", "table5", "fig5", "table6",
	"fig6", "fig7", "table7", "table8", "ablations",
}

func main() {
	id := flag.String("id", "all", "artifact to regenerate (fig1, table2, fig3, fig4, table5, fig5, table6, fig6, fig7, table7, table8, ablations, all)")
	format := flag.String("format", "text", "output format for tabular artifacts: text, csv or json")
	flag.Parse()
	if *format != "text" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "experiments: unknown format %q (want text, csv or json)\n", *format)
		os.Exit(2)
	}
	if *id != "all" && !slices.Contains(artifacts, *id) {
		fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q (want %s or all)\n", *id, strings.Join(artifacts, ", "))
		os.Exit(2)
	}
	if err := run(os.Stdout, *id, *format); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run writes artifact id ("all" for every artifact under a header each) to
// w. Tabular artifacts honour format; the others always render as text.
func run(w io.Writer, id, format string) error {
	if id == "all" {
		for _, name := range artifacts {
			fmt.Fprintf(w, "\n===== %s =====\n", name)
			if err := run(w, name, format); err != nil {
				return err
			}
		}
		return nil
	}
	switch id {
	case "fig1":
		r, err := experiments.Fig1()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFig1(r))
	case "table2":
		return table(w, format, experiments.Table2(), report.Table2CSV, experiments.FormatTable2)
	case "fig3":
		fmt.Fprint(w, experiments.FormatFig3(experiments.Fig3()))
	case "fig4":
		r, err := experiments.Fig4()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFig4(r))
	case "table5":
		return table(w, format, experiments.Table5(), report.Table5CSV, experiments.FormatTable5)
	case "fig5":
		rows, err := experiments.Fig5()
		if err != nil {
			return err
		}
		return table(w, format, rows, report.Fig5CSV, experiments.FormatFig5)
	case "table6":
		rows, err := experiments.Table6()
		if err != nil {
			return err
		}
		return table(w, format, rows, report.Table6CSV, experiments.FormatTable6)
	case "fig6":
		rows, err := experiments.Fig6()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatFig6(rows))
	case "fig7":
		phases, err := experiments.Fig7()
		if err != nil {
			return err
		}
		return table(w, format, phases, report.Fig7CSV, experiments.FormatFig7)
	case "table7":
		rows, err := experiments.Table7()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatTable7(rows))
	case "table8":
		cells, err := experiments.Table8()
		if err != nil {
			return err
		}
		return table(w, format, cells, report.Table8CSV, experiments.FormatTable8)
	case "ablations":
		return ablations(w)
	default:
		return fmt.Errorf("unknown artifact %q", id)
	}
	return nil
}

// table writes a tabular artifact as CSV, JSON or text.
func table[T any](w io.Writer, format string, v T, csv func(io.Writer, T) error, text func(T) string) error {
	switch format {
	case "csv":
		return csv(w, v)
	case "json":
		return report.WriteJSON(w, v)
	}
	fmt.Fprint(w, text(v))
	return nil
}

// ablations writes the design ablations, text only.
func ablations(w io.Writer) error {
	nc, err := experiments.AblationNoContention("Orin")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ablation %-22s full %.2fms variant %.2fms penalty %+.1f%%\n", nc.Name, nc.FullMs, nc.VariantMs, nc.PenaltyPct)
	nt, err := experiments.AblationNoTransitionCost("Orin")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ablation %-22s full %.2fms variant %.2fms penalty %+.1f%%\n", nt.Name, nt.FullMs, nt.VariantMs, nt.PenaltyPct)
	pts, err := experiments.AblationGranularity("Xavier", []int{2, 4, 8, 12, 16})
	if err != nil {
		return err
	}
	for _, pt := range pts {
		fmt.Fprintf(w, "ablation granularity maxGroups=%-3d measured %.2fms solver %d nodes, %d evals\n",
			pt.MaxGroups, pt.MeasuredMs, pt.SolverNodes, pt.SolverEvals)
	}
	cr, err := experiments.MeasureContentionReduction("Xavier")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "contention reduction: oversaturated time %.2fms (naive) -> %.2fms (HaX-CoNN), -%.0f%% (paper: up to 45%%)\n",
		cr.NaiveOversatMs, cr.HaXOversatMs, cr.ReductionPct)
	return nil
}

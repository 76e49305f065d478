// Command experiments regenerates the paper's evaluation artifacts on the
// simulator substrate: every table and figure of Sec. 5 plus the design
// ablations (-id ablations).
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
	"os"

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

	run := func(name string) error {
		switch name {
		case "fig1":
			r, err := experiments.Fig1()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig1(r))
		case "table2":
			rows := experiments.Table2()
			switch *format {
			case "csv":
				return report.Table2CSV(os.Stdout, rows)
			case "json":
				return report.WriteJSON(os.Stdout, rows)
			}
			fmt.Print(experiments.FormatTable2(rows))
		case "fig3":
			fmt.Print(experiments.FormatFig3(experiments.Fig3()))
		case "fig4":
			r, err := experiments.Fig4()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig4(r))
		case "table5":
			rows := experiments.Table5()
			switch *format {
			case "csv":
				return report.Table5CSV(os.Stdout, rows)
			case "json":
				return report.WriteJSON(os.Stdout, rows)
			}
			fmt.Print(experiments.FormatTable5(rows))
		case "fig5":
			rows, err := experiments.Fig5()
			if err != nil {
				return err
			}
			switch *format {
			case "csv":
				return report.Fig5CSV(os.Stdout, rows)
			case "json":
				return report.WriteJSON(os.Stdout, rows)
			}
			fmt.Print(experiments.FormatFig5(rows))
		case "table6":
			rows, err := experiments.Table6()
			if err != nil {
				return err
			}
			switch *format {
			case "csv":
				return report.Table6CSV(os.Stdout, rows)
			case "json":
				return report.WriteJSON(os.Stdout, rows)
			}
			fmt.Print(experiments.FormatTable6(rows))
		case "fig6":
			rows, err := experiments.Fig6()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig6(rows))
		case "fig7":
			phases, err := experiments.Fig7()
			if err != nil {
				return err
			}
			switch *format {
			case "csv":
				return report.Fig7CSV(os.Stdout, phases)
			case "json":
				return report.WriteJSON(os.Stdout, phases)
			}
			fmt.Print(experiments.FormatFig7(phases))
		case "table7":
			rows, err := experiments.Table7()
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatTable7(rows))
		case "table8":
			cells, err := experiments.Table8()
			if err != nil {
				return err
			}
			switch *format {
			case "csv":
				return report.Table8CSV(os.Stdout, cells)
			case "json":
				return report.WriteJSON(os.Stdout, cells)
			}
			fmt.Print(experiments.FormatTable8(cells))
		case "ablations":
			nc, err := experiments.AblationNoContention("Orin")
			if err != nil {
				return err
			}
			fmt.Printf("ablation %-22s full %.2fms variant %.2fms penalty %+.1f%%\n", nc.Name, nc.FullMs, nc.VariantMs, nc.PenaltyPct)
			nt, err := experiments.AblationNoTransitionCost("Orin")
			if err != nil {
				return err
			}
			fmt.Printf("ablation %-22s full %.2fms variant %.2fms penalty %+.1f%%\n", nt.Name, nt.FullMs, nt.VariantMs, nt.PenaltyPct)
			pts, err := experiments.AblationGranularity("Xavier", []int{2, 4, 8, 12, 16})
			if err != nil {
				return err
			}
			for _, pt := range pts {
				fmt.Printf("ablation granularity maxGroups=%-3d measured %.2fms solve %.2fms\n", pt.MaxGroups, pt.MeasuredMs, pt.SolveMs)
			}
			cr, err := experiments.MeasureContentionReduction("Xavier")
			if err != nil {
				return err
			}
			fmt.Printf("contention reduction: oversaturated time %.2fms (naive) -> %.2fms (HaX-CoNN), -%.0f%% (paper: up to 45%%)\n",
				cr.NaiveOversatMs, cr.HaXOversatMs, cr.ReductionPct)
		default:
			return fmt.Errorf("unknown artifact %q", name)
		}
		return nil
	}

	if *id == "all" {
		for _, name := range artifacts {
			fmt.Printf("\n===== %s =====\n", name)
			if err := run(name); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*id); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

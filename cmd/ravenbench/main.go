// Command ravenbench regenerates the paper's tables and figures. Each
// experiment prints the same rows/series the paper reports. Times in the
// figures are modeled, not wall clock: internal/experiments/costmodel.go
// converts each measured run into the time the paper's cluster would
// report (see "Measured vs modeled time" in docs/ARCHITECTURE.md).
//
// Usage:
//
//	ravenbench -exp all
//	ravenbench -exp fig6 -rows 100000 -runs 3
//	ravenbench -exp fig1,table1,fig4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"raven/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "comma-separated experiment ids: fig1,table1,fig4,fig6,fig7,fig8,fig9,fig10,fig11,table2,fig12,accuracy,all")
		rows   = flag.Int("rows", 50000, "fact-table rows (scaled from the paper's 100M-2B)")
		runs   = flag.Int("runs", 3, "runs per measurement (trimmed mean)")
		seed   = flag.Int64("seed", 1, "workload generator seed")
		corpus = flag.Int("corpus", 138, "OpenML-like corpus size for fig1/fig4")
	)
	flag.Parse()
	cfg := experiments.Config{Rows: *rows, Runs: *runs, Seed: *seed}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	ran := 0

	emit := func(rep *experiments.Report, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "ravenbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
		ran++
	}

	if all || want["fig1"] {
		n := *corpus
		if all && n < 500 {
			n = 500
		}
		emit(experiments.Fig1(cfg, n))
	}
	if all || want["table1"] {
		emit(experiments.Table1(cfg))
	}
	if all || want["fig4"] {
		emit(experiments.Fig4(cfg, *corpus, 5, 40))
	}
	if all || want["fig6"] {
		emit(experiments.Fig6(cfg))
	}
	if all || want["fig7"] {
		emit(experiments.Fig7(cfg, nil))
	}
	if all || want["fig8"] {
		emit(experiments.Fig8(cfg))
	}
	if all || want["fig9"] {
		emit(experiments.Fig9(cfg, nil))
	}
	if all || want["fig10"] {
		emit(experiments.Fig10(cfg, nil))
	}
	if all || want["fig11"] || want["table2"] {
		fig11, tab2, err := experiments.Fig11(cfg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ravenbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(fig11.String())
		fmt.Println(tab2.String())
		ran++
	}
	if all || want["fig12"] {
		emit(experiments.Fig12(cfg, nil))
	}
	if all || want["accuracy"] {
		emit(experiments.Accuracy(cfg))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ravenbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// Expedia ranking: a multi-table prediction query in the shape the paper's
// Fig. 6 evaluates — a fact table of hotel searches joined with two
// dimension tables, feeding a gradient-boosting model with hundreds of
// one-hot features. The demo compares the optimized and unoptimized
// executions and shows the columns the scans stopped reading.
//
// Run it (no input files needed; ~20k searches are generated in-process,
// takes a few seconds to train the model):
//
//	go run ./examples/expedia_ranking
//
// Expected output: the ranking query text; a no-opt vs raven comparison
// (identical row counts, measured wall times, and the rules that fired);
// the per-scan column lists after projection
// pushdown; and a top-10 ranking of site groups by average predicted
// score via GROUP BY / HAVING / ORDER BY / LIMIT.
package main

import (
	"fmt"
	"log"

	"raven"
	"raven/internal/datagen"
	"raven/internal/train"
)

func main() {
	ds := datagen.Expedia(20000, 7)
	pipe, err := ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
		s.NEstimators = 20
		s.MaxDepth = 3
		s.LearningRate = 0.2
	})
	if err != nil {
		log.Fatal(err)
	}
	query := ds.Query(pipe.Name, "d.promotion_flag = 'v1'", "p.score > 0.6")

	// Wall is the measured execution time on this host. The modeled
	// Spark-cluster speedup of the same optimizations (paper Fig. 6) is
	// cmd/ravenbench's job: go run ./cmd/ravenbench -exp fig6.
	run := func(label string, options ...raven.Option) *raven.Result {
		s := raven.NewSession(options...)
		for _, t := range ds.Tables {
			s.RegisterTable(t)
		}
		if err := s.RegisterModel(pipe); err != nil {
			log.Fatal(err)
		}
		res, err := s.Query(query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s rows=%-6d wall=%-12v rules=%v\n",
			label, res.Table.NumRows(), res.Wall, res.Report.Fired)
		return res
	}

	fmt.Println("query:", query)
	fmt.Println()
	noopt := run("no-opt", raven.WithoutOptimizations())
	opt := run("raven")
	fmt.Println()
	if opt.Report.ScanColumns != nil {
		fmt.Println("columns read per scan after optimization:")
		for scan, cols := range opt.Report.ScanColumns {
			fmt.Printf("  %-24s %d columns: %v\n", scan, len(cols), cols)
		}
	}
	fmt.Printf("\nspeedup (measured wall time): %.2fx\n",
		noopt.Wall.Seconds()/opt.Wall.Seconds())

	// The actual ranking query: destinations whose average predicted
	// booking score passes a bar, best ten first — HAVING filters the
	// grouped predictions, ORDER BY … LIMIT runs as a top-k heap over
	// the groups (per-worker runs k-way merged under parallelism).
	rankQuery := ds.RankedGroupedQuery(pipe.Name, 0.3, 10)
	s := raven.NewSession(raven.WithParallelism(4))
	for _, t := range ds.Tables {
		s.RegisterTable(t)
	}
	if err := s.RegisterModel(pipe); err != nil {
		log.Fatal(err)
	}
	top, err := s.Query(rankQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-k query:", rankQuery)
	fmt.Printf("top %d of the qualifying %s groups by average predicted score:\n",
		top.Table.NumRows(), ds.GroupColumn())
	for i := 0; i < top.Table.NumRows(); i++ {
		fmt.Printf("  %-8s %.4f\n",
			top.Table.Cols[0].AsString(i), top.Table.Cols[1].F64[i])
	}
}

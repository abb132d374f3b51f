package engine

import (
	"fmt"
	"os"
	"testing"

	"raven/internal/data"
	"raven/internal/ir"
	"raven/internal/relational"
	"raven/internal/testfix"
)

// TestExecuteContextOwnsQueryBudgetSpill drives a lowered plan through
// ExecuteContext with nothing but Profile.GlobalBudget set: the engine
// itself must create the query's budget, hand it to every breaker, report
// the spill volume and clean up — results byte-identical to the in-memory
// serial run, accounting drained and the spill directory empty.
func TestExecuteContextOwnsQueryBudgetSpill(t *testing.T) {
	cat := NewCatalog()
	pi, pt, bt := testfix.CovidTables()
	cat.RegisterTable(data.Replicate(pi, 1200, "id"))
	cat.RegisterTable(data.Replicate(pt, 1200, "id"))
	cat.RegisterTable(bt)
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	joined := covidIR(t, cat)
	srt := joined.NewNode(ir.KindSort, joined.Root)
	srt.OrderBy = []relational.SortKey{{Col: "p.score", Desc: true}, {Col: "pi.id"}}
	srt.Limit = -1
	g := ir.NewGraph(srt)
	if err := g.Validate(cat); err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if want.SpilledBytes != 0 {
		t.Fatalf("unbudgeted run spilled %d bytes", want.SpilledBytes)
	}
	for _, dop := range []int{1, 2} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			dir := t.TempDir()
			prof := Local
			prof.ExecDOP = dop
			prof.GlobalBudget = relational.NewGlobalBudget(4096, dir)
			root, err := Lower(g, cat, prof)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExecuteContext(t.Context(), root, prof)
			if err != nil {
				t.Fatal(err)
			}
			if res.SpilledBytes == 0 {
				t.Fatal("4 KiB budget did not spill")
			}
			assertResultsIdentical(t, want.Table, res.Table, "budgeted")
			if r, a := prof.GlobalBudget.Reserved(), prof.GlobalBudget.ActiveQueries(); r != 0 || a != 0 {
				t.Fatalf("budget not drained: reserved=%d active=%d", r, a)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("%d spill files outlived the query", len(ents))
			}
		})
	}
}

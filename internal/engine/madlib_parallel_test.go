package engine

import (
	"testing"
)

// Guards finding 1: the MADlib materialized mode must survive the
// parallel plan rewrite (it is vetoed from exchanges but its op may be
// rebuilt over a rewritten child).
func TestMADlibModeSurvivesParallelRewrite(t *testing.T) {
	cat, g := parallelFixture(t, 8000)
	serial := madlib()
	sres, err := Run(g, cat, serial)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Sessions != 2 {
		t.Fatalf("serial MADlib sessions = %d, want 2", sres.Sessions)
	}
	par := serial
	par.ExecDOP = 4
	pres, err := Run(g, cat, par)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Sessions != 2 {
		t.Fatalf("parallel MADlib sessions = %d, want 2 (materialized mode dropped?)", pres.Sessions)
	}
	assertResultsIdentical(t, sres.Table, pres.Table, "madlib")
	if pres.BytesConverted != sres.BytesConverted {
		t.Fatalf("BytesConverted %d != serial %d", pres.BytesConverted, sres.BytesConverted)
	}
}

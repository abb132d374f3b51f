package engine

import (
	"testing"

	"raven/internal/testfix"
)

// TestSharedSessionPoolReusesAcrossQueries pins the engine-level session
// pool: the first query initializes sessions cold, repeated queries check
// the same sessions out warm, and re-registering the model evicts them.
func TestSharedSessionPoolReusesAcrossQueries(t *testing.T) {
	cat := covidCatalog(t)
	g := covidIR(t, cat)
	first, err := Run(g, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if first.Sessions != 1 || first.ColdSessions != 1 {
		t.Fatalf("first run: sessions=%d cold=%d, want 1/1", first.Sessions, first.ColdSessions)
	}
	for i := 0; i < 3; i++ {
		warm, err := Run(g, cat, Local)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Sessions != 1 || warm.ColdSessions != 0 {
			t.Fatalf("warm run %d: sessions=%d cold=%d, want 1 checkout, 0 cold inits", i, warm.Sessions, warm.ColdSessions)
		}
		assertResultsIdentical(t, first.Table, warm.Table, "warm run")
	}
	// Re-registering the model under the same name evicts its pooled
	// sessions: the next run must initialize cold again.
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	g2 := covidIR(t, cat)
	after, err := Run(g2, cat, Local)
	if err != nil {
		t.Fatal(err)
	}
	if after.ColdSessions != 1 {
		t.Fatalf("run after model re-registration: cold=%d, want 1 (stale sessions must not survive)", after.ColdSessions)
	}
}

// TestCatalogVersionBumps pins the plan-cache invalidation source: every
// registration moves the catalog version.
func TestCatalogVersionBumps(t *testing.T) {
	cat := covidCatalog(t)
	v0 := cat.Version()
	pi, _, _ := testfix.CovidTables()
	cat.RegisterTable(pi)
	if cat.Version() == v0 {
		t.Fatal("RegisterTable did not bump the catalog version")
	}
	v1 := cat.Version()
	if err := cat.RegisterModel(testfix.CovidPipeline()); err != nil {
		t.Fatal(err)
	}
	if cat.Version() == v1 {
		t.Fatal("RegisterModel did not bump the catalog version")
	}
}

package ir

import (
	"strings"
	"testing"

	"raven/internal/data"
	"raven/internal/model"
	"raven/internal/relational"
	"raven/internal/testfix"
)

// stubCatalog implements Catalog for tests.
type stubCatalog struct {
	tables map[string]*data.PartitionedTable
	models map[string]*model.Pipeline
}

func newStubCatalog() *stubCatalog {
	pi, pt, bt := testfix.CovidTables()
	return &stubCatalog{
		tables: map[string]*data.PartitionedTable{
			"patient_info":   data.SinglePartition(pi),
			"pulmonary_test": data.SinglePartition(pt),
			"blood_test":     data.SinglePartition(bt),
		},
		models: map[string]*model.Pipeline{"covid_risk": testfix.CovidPipeline()},
	}
}

func (c *stubCatalog) Table(name string) (*data.PartitionedTable, bool) {
	t, ok := c.tables[name]
	return t, ok
}

func (c *stubCatalog) Model(name string) (*model.Pipeline, bool) {
	m, ok := c.models[name]
	return m, ok
}

// covidGraph builds the running example IR by hand:
// Project(Filter(Predict(Filter(Join(Join(scan,scan),scan))))).
func covidGraph(t *testing.T) (*Graph, Catalog) {
	t.Helper()
	cat := newStubCatalog()
	g := &Graph{}
	s1 := g.NewNode(KindScan)
	s1.Table, s1.Alias = "patient_info", "pi"
	s2 := g.NewNode(KindScan)
	s2.Table, s2.Alias = "pulmonary_test", "pt"
	s3 := g.NewNode(KindScan)
	s3.Table, s3.Alias = "blood_test", "bt"
	j1 := g.NewNode(KindJoin, s1, s2)
	j1.LeftKey, j1.RightKey = "pi.id", "pt.id"
	j2 := g.NewNode(KindJoin, j1, s3)
	j2.LeftKey, j2.RightKey = "pt.id", "bt.id"
	f1 := g.NewNode(KindFilter, j2)
	f1.Pred = relational.NewBinOp(relational.OpEq, relational.Col("pi.asthma"), relational.Str("yes"))
	pr := g.NewNode(KindPredict, f1)
	pr.Pipeline = testfix.CovidPipeline()
	pr.InputMap = map[string]string{
		"age": "pi.age", "bpm": "pt.bpm",
		"asthma": "pi.asthma", "hypertension": "pi.hypertension",
	}
	pr.OutputMap = map[string]string{"score": "p.score"}
	pr.KeepInput = true
	f2 := g.NewNode(KindFilter, pr)
	f2.Pred = relational.NewBinOp(relational.OpGt, relational.Col("p.score"), relational.Num(0.5))
	proj := g.NewNode(KindProject, f2)
	proj.Exprs = []relational.NamedExpr{
		{Name: "pi.id", E: relational.Col("pi.id")},
		{Name: "p.score", E: relational.Col("p.score")},
	}
	return NewGraph(proj), cat
}

func TestGraphValidate(t *testing.T) {
	g, cat := covidGraph(t)
	if err := g.Validate(cat); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(g *Graph)
	}{
		{"unknown table", func(g *Graph) {
			Find(g.Root, func(n *Node) bool { return n.Kind == KindScan }).Table = "ghost"
		}},
		{"predict without pipeline", func(g *Graph) {
			Find(g.Root, func(n *Node) bool { return n.Kind == KindPredict }).Pipeline = nil
		}},
		{"unbound input", func(g *Graph) {
			n := Find(g.Root, func(n *Node) bool { return n.Kind == KindPredict })
			delete(n.InputMap, "age")
		}},
		{"binding missing column", func(g *Graph) {
			n := Find(g.Root, func(n *Node) bool { return n.Kind == KindPredict })
			n.InputMap["age"] = "ghost.col"
		}},
		{"join with one child", func(g *Graph) {
			n := Find(g.Root, func(n *Node) bool { return n.Kind == KindJoin })
			n.Children = n.Children[:1]
		}},
		{"filter with no child", func(g *Graph) {
			n := Find(g.Root, func(n *Node) bool { return n.Kind == KindFilter })
			n.Children = nil
		}},
	}
	for _, tc := range cases {
		g, cat := covidGraph(t)
		tc.mut(g)
		if err := g.Validate(cat); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestOutputColumns(t *testing.T) {
	g, cat := covidGraph(t)
	cols, err := OutputColumns(g.Root, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "pi.id" || cols[1] != "p.score" {
		t.Fatalf("root cols = %v", cols)
	}
	pr := Find(g.Root, func(n *Node) bool { return n.Kind == KindPredict })
	cols, err = OutputColumns(pr, cat)
	if err != nil {
		t.Fatal(err)
	}
	// 4 + 2 + 2 input columns + 1 prediction output.
	if len(cols) != 9 || cols[len(cols)-1] != "p.score" {
		t.Fatalf("predict cols = %v", cols)
	}
	scan := Find(g.Root, func(n *Node) bool { return n.Kind == KindScan })
	scan.Columns = []string{"id", "age"}
	cols, err = OutputColumns(scan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "pi.id" {
		t.Fatalf("pruned scan cols = %v", cols)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, cat := covidGraph(t)
	c := g.Clone()
	// Mutating the clone's pipeline must not affect the original.
	cp := Find(c.Root, func(n *Node) bool { return n.Kind == KindPredict })
	cp.Pipeline.Name = "mutated"
	cp.InputMap["age"] = "other"
	cp.Children = nil

	op := Find(g.Root, func(n *Node) bool { return n.Kind == KindPredict })
	if op.Pipeline.Name == "mutated" || op.InputMap["age"] == "other" || op.Children == nil {
		t.Fatal("Clone shares state with original")
	}
	if err := g.Validate(cat); err != nil {
		t.Fatal(err)
	}
}

func TestWalkFindParent(t *testing.T) {
	g, _ := covidGraph(t)
	count := 0
	Walk(g.Root, func(n *Node) { count++ })
	if count != 9 {
		t.Fatalf("node count = %d, want 9", count)
	}
	scans := FindAll(g.Root, func(n *Node) bool { return n.Kind == KindScan })
	if len(scans) != 3 {
		t.Fatalf("scans = %d", len(scans))
	}
	pr := Find(g.Root, func(n *Node) bool { return n.Kind == KindPredict })
	par := Parent(g.Root, pr)
	if par == nil || par.Kind != KindFilter {
		t.Fatalf("Parent(predict) = %v", par)
	}
	if Parent(g.Root, g.Root) != nil {
		t.Fatal("root has no parent")
	}
}

func TestExplainMentionsEverything(t *testing.T) {
	g, _ := covidGraph(t)
	s := g.Explain()
	for _, want := range []string{"Scan patient_info", "Join pi.id = pt.id",
		"Filter", "Predict[ML]", "TreeEnsemble", "Project"} {
		if !strings.Contains(s, want) {
			t.Errorf("Explain missing %q:\n%s", want, s)
		}
	}
}

func TestQualifyBaseName(t *testing.T) {
	if Qualify("t", "c") != "t.c" || Qualify("", "c") != "c" {
		t.Fatal("Qualify wrong")
	}
	if BaseName("t.c") != "c" || BaseName("c") != "c" {
		t.Fatal("BaseName wrong")
	}
}

func TestNodeKindStrings(t *testing.T) {
	kinds := []NodeKind{KindScan, KindFilter, KindProject, KindJoin, KindPredict, KindAggregate, KindUnion}
	for _, k := range kinds {
		if strings.HasPrefix(k.String(), "NodeKind(") {
			t.Errorf("missing String for %d", k)
		}
	}
	targets := []PredictTarget{TargetML, TargetSQL, TargetDNN}
	for _, tg := range targets {
		if strings.HasPrefix(tg.String(), "PredictTarget(") {
			t.Errorf("missing String for target %d", tg)
		}
	}
}

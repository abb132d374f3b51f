// Package datagen generates the four evaluation datasets of Table 1 with
// the paper's schema shapes: Credit Card (1 table, 28 numeric inputs),
// Hospital (1 table, 9 numeric + 15 categorical inputs, 59 encoded
// features, with the num_issues / rcount partitioning columns of Fig. 11),
// Expedia (3 tables joined, 8 numeric + 20 categorical) and Flights
// (4 tables joined, 4 numeric + 33 categorical). The paper's originals are
// proprietary/Kaggle data at 100M-2B rows; these generators plant label
// structure over a feature subset so trained models exhibit the sparsity
// the optimizations exploit, preserve FK integrity for join elimination,
// and scale row counts down by a constant factor per experiment (the
// substitution policy heading internal/experiments/costmodel.go).
// Expedia/Flights encoded widths are scaled from 3965/6475 to ~400/~600.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"raven/internal/data"
	"raven/internal/engine"
	"raven/internal/model"
	"raven/internal/train"
)

// Dataset is one generated evaluation workload.
type Dataset struct {
	Name string
	// Tables are the base tables (first one is the fact table).
	Tables []*data.Table
	// Joins describe the FK joins of the canonical query, in order.
	Joins []JoinSpec
	// Spec lists the model inputs (unqualified column names on the joined
	// row) and the label column.
	Spec train.Spec
	// TrainSample is a joined sample used to fit pipelines.
	TrainSample *data.Table
}

// JoinSpec is one FK join of the canonical prediction query.
type JoinSpec struct {
	LeftAlias, LeftKey     string
	Table, Alias, RightKey string
}

// NumInputs returns the input column count (numeric + categorical).
func (d *Dataset) NumInputs() int {
	return len(d.Spec.Numeric) + len(d.Spec.Categorical)
}

// EncodedWidth returns the feature count after one-hot encoding the
// training sample.
func (d *Dataset) EncodedWidth() (int, error) {
	f, err := train.FitFeaturizers(d.TrainSample, d.Spec)
	if err != nil {
		return 0, err
	}
	return f.Width, nil
}

// Train fits a pipeline of the given kind on the dataset's sample.
func (d *Dataset) Train(kind train.ModelKind, mut func(*train.Spec)) (*model.Pipeline, error) {
	spec := d.Spec
	spec.Kind = kind
	spec.Name = fmt.Sprintf("%s_%s", d.Name, kind)
	if mut != nil {
		mut(&spec)
	}
	return train.FitPipeline(d.TrainSample, spec)
}

// Catalog registers the dataset's tables in a fresh catalog.
func (d *Dataset) Catalog() *engine.Catalog {
	cat := engine.NewCatalog()
	for _, t := range d.Tables {
		cat.RegisterTable(t)
	}
	return cat
}

// ChunkedCatalog registers every base table in compressed chunked storage
// of chunkRows rows per chunk (<= 0 selects the default), the chunk-native
// counterpart of Catalog: scans decode row ranges on demand, exactly as a
// large chunk-registered CSV would be served.
func (d *Dataset) ChunkedCatalog(chunkRows int) (*engine.Catalog, error) {
	cat := engine.NewCatalog()
	for _, t := range d.Tables {
		b := data.NewChunkedBuilder(t.Name, chunkRows)
		if err := b.Append(t); err != nil {
			return nil, err
		}
		ct, err := b.Finish()
		if err != nil {
			return nil, err
		}
		if err := cat.RegisterChunked(ct); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// Query renders the canonical prediction query: join all tables in a CTE,
// PREDICT with the given model, and append optional WHERE conjuncts (given
// over the CTE alias d or the prediction alias p).
func (d *Dataset) Query(modelName string, where ...string) string {
	var b strings.Builder
	main := d.Tables[0]
	if len(d.Joins) == 0 {
		fmt.Fprintf(&b, "SELECT p.score FROM PREDICT(MODEL = %s, DATA = %s AS d) WITH (score FLOAT) AS p",
			modelName, main.Name)
	} else {
		fmt.Fprintf(&b, "WITH d AS (SELECT * FROM %s AS t0", main.Name)
		for _, j := range d.Joins {
			fmt.Fprintf(&b, " JOIN %s AS %s ON %s.%s = %s.%s",
				j.Table, j.Alias, j.LeftAlias, j.LeftKey, j.Alias, j.RightKey)
		}
		fmt.Fprintf(&b, ") SELECT p.score FROM PREDICT(MODEL = %s, DATA = d) WITH (score FLOAT) AS p",
			modelName)
	}
	if len(where) > 0 {
		fmt.Fprintf(&b, " WHERE %s", strings.Join(where, " AND "))
	}
	return b.String()
}

// AggregateQuery renders the SQL Server-style variant that aggregates
// predictions instead of returning them (§7 "for SQL Server we add an
// aggregate operator on prediction results").
func (d *Dataset) AggregateQuery(modelName string, where ...string) string {
	q := d.Query(modelName, where...)
	return strings.Replace(q, "SELECT p.score FROM", "SELECT AVG(p.score) AS avg_score FROM", 1)
}

// GroupColumn returns the categorical column the grouped queries key on,
// qualified under the canonical data alias d (the CTE rename exposes
// every joined column as d.<base>, so the first model categorical always
// resolves).
func (d *Dataset) GroupColumn() string {
	return "d." + d.Spec.Categorical[0]
}

// GroupedAggregateQuery renders the grouped variant of AggregateQuery:
// the average predicted score per category ("average predicted rate per
// market" in the paper's terms), exercising GROUP BY over PREDICT.
func (d *Dataset) GroupedAggregateQuery(modelName string, where ...string) string {
	q := d.Query(modelName, where...)
	q = strings.Replace(q, "SELECT p.score FROM",
		fmt.Sprintf("SELECT %s, AVG(p.score) AS avg_score FROM", d.GroupColumn()), 1)
	return q + " GROUP BY " + d.GroupColumn()
}

// RankedGroupedQuery renders the canonical ML-ranking shape over
// GroupedAggregateQuery: categories whose average predicted score
// exceeds a threshold, top-k by that score ("markets whose average
// predicted booking rate passes a bar, best k first").
func (d *Dataset) RankedGroupedQuery(modelName string, threshold float64, limit int, where ...string) string {
	return d.GroupedAggregateQuery(modelName, where...) +
		fmt.Sprintf(" HAVING avg_score > %g ORDER BY avg_score DESC LIMIT %d", threshold, limit)
}

// OrderedGroupedQuery renders GroupedAggregateQuery ordered by the group
// key itself (ascending or descending), exercising string-key sorting
// over both dictionary-encoded and raw catalogs.
func (d *Dataset) OrderedGroupedQuery(modelName string, desc bool, where ...string) string {
	dir := "ASC"
	if desc {
		dir = "DESC"
	}
	return d.GroupedAggregateQuery(modelName, where...) +
		fmt.Sprintf(" ORDER BY %s %s", d.GroupColumn(), dir)
}

// CreditCard generates the single-table, all-numeric fraud dataset
// (28 numeric inputs like the Kaggle ULB credit-card data).
func CreditCard(rows int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	const nFeat = 28
	cols := make([]*data.Column, 0, nFeat+2)
	vals := make([][]float64, nFeat)
	ids := make([]int64, rows)
	label := make([]float64, rows)
	for j := 0; j < nFeat; j++ {
		vals[j] = make([]float64, rows)
	}
	// Only the first 8 PCA-like components carry signal — L1-regularized
	// models then zero most of the remaining 20 weights (Fig. 9's sweep).
	weights := []float64{2.0, -1.6, 1.2, -1.0, 0.8, -0.6, 0.5, 0.4}
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		z := -1.0
		for j := 0; j < nFeat; j++ {
			v := rng.NormFloat64()
			vals[j][i] = v
			if j < len(weights) {
				z += weights[j] * v
			}
		}
		if z+0.5*rng.NormFloat64() > 0 {
			label[i] = 1
		}
	}
	cols = append(cols, data.NewInt("txn_id", ids))
	spec := train.Spec{Label: "label"}
	for j := 0; j < nFeat; j++ {
		name := fmt.Sprintf("v%d", j+1)
		cols = append(cols, data.NewFloat(name, vals[j]))
		spec.Numeric = append(spec.Numeric, name)
	}
	cols = append(cols, data.NewFloat("label", label))
	tb := data.MustNewTable("creditcard", cols...)
	sample := sampleRows(tb, 800, rng)
	return &Dataset{Name: "creditcard", Tables: []*data.Table{dropLabel(tb)},
		Spec: spec, TrainSample: sample}
}

// hospitalCats lists the Hospital categorical columns and cardinalities:
// 12 binary flags + rcount(6) + facid(6) + secondarydiagnosis(14) = 15
// columns, 50 encoded values (Table 1: 24 inputs → 59 features).
var hospitalCats = []struct {
	name string
	card int
}{
	{"rcount", 6}, {"facid", 6}, {"secondarydiagnosis", 14},
	{"gender", 2}, {"dialysis", 2}, {"asthma", 2}, {"irondef", 2},
	{"pneum", 2}, {"substancedep", 2}, {"psychmajor", 2}, {"depress", 2},
	{"psychother", 2}, {"fibrosis", 2}, {"malnutrition", 2}, {"hemo", 2},
}

var hospitalNums = []string{
	"bmi", "hematocrit", "neutrophils", "sodium", "glucose",
	"bloodureanitro", "creatinine", "pulse", "num_issues",
}

// Hospital generates the length-of-stay dataset: 9 numeric + 15
// categorical inputs, with glucose/pulse ranges correlated with rcount and
// num_issues so per-partition statistics genuinely prune trees (Fig. 11,
// Table 2).
func Hospital(rows int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, rows)
	nums := make(map[string][]float64, len(hospitalNums))
	for _, n := range hospitalNums {
		nums[n] = make([]float64, rows)
	}
	cats := make(map[string][]string, len(hospitalCats))
	for _, c := range hospitalCats {
		cats[c.name] = make([]string, rows)
	}
	label := make([]float64, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		rcount := rng.Intn(6)
		cats["rcount"][i] = fmt.Sprintf("%d", rcount)
		for _, c := range hospitalCats[1:] {
			k := rng.Intn(c.card)
			cats[c.name][i] = fmt.Sprintf("c%d", k)
		}
		// num_issues: mostly 0, tail up to 5; correlated with rcount.
		issues := 0
		if rng.Float64() < 0.4+0.08*float64(rcount) {
			issues = 1 + rng.Intn(5)
		}
		nums["num_issues"][i] = float64(issues)
		// Vitals shift with rcount and issues — per-partition min/max
		// therefore differ, enabling data-induced pruning.
		base := float64(rcount) * 8
		nums["glucose"][i] = 80 + base + 15*rng.NormFloat64()
		nums["pulse"][i] = 70 + 6*float64(issues) + 8*rng.NormFloat64()
		nums["bmi"][i] = 26 + 5*rng.NormFloat64()
		nums["hematocrit"][i] = 40 + 5*rng.NormFloat64()
		nums["neutrophils"][i] = 8 + 3*rng.NormFloat64()
		nums["sodium"][i] = 138 + 3*rng.NormFloat64()
		nums["bloodureanitro"][i] = 14 + 6*rng.NormFloat64()
		nums["creatinine"][i] = 1 + 0.3*rng.NormFloat64()
		z := 0.05*(nums["glucose"][i]-110) + 0.08*(nums["pulse"][i]-75) +
			0.6*float64(issues) + 0.4*float64(rcount) - 1.5
		if cats["asthma"][i] == "c1" {
			z += 0.8
		}
		if cats["hemo"][i] == "c1" {
			z += 0.5
		}
		if z+rng.NormFloat64() > 0 {
			label[i] = 1
		}
	}
	cols := []*data.Column{data.NewInt("eid", ids)}
	spec := train.Spec{Label: "label"}
	for _, n := range hospitalNums {
		cols = append(cols, data.NewFloat(n, nums[n]))
		spec.Numeric = append(spec.Numeric, n)
	}
	for _, c := range hospitalCats {
		cols = append(cols, data.NewString(c.name, cats[c.name]))
		spec.Categorical = append(spec.Categorical, c.name)
	}
	cols = append(cols, data.NewFloat("label", label))
	tb := data.DictEncodeTable(data.MustNewTable("hospital", cols...))
	sample := sampleRows(tb, 1000, rng)
	return &Dataset{Name: "hospital", Tables: []*data.Table{dropLabel(tb)},
		Spec: spec, TrainSample: sample}
}

// HospitalPartitionColumn produces the partitioned version of the hospital
// table used by Fig. 11 / Table 2: "num_issues" buckets into two
// partitions (no issues / any issues); "rcount" yields six.
func HospitalPartitionColumn(tb *data.Table, col string) (*data.PartitionedTable, error) {
	if col == "num_issues" {
		// Binarize: the paper's num_issues partitioning "led to two
		// partitions (whether or not there were health issues)".
		n := tb.NumRows()
		buck := make([]string, n)
		src := tb.Col("num_issues")
		for i := 0; i < n; i++ {
			if src.AsFloat(i) > 0 {
				buck[i] = "issues"
			} else {
				buck[i] = "none"
			}
		}
		aug := tb.Clone()
		if err := aug.AddColumn(data.NewString("_bucket", buck)); err != nil {
			return nil, err
		}
		pt, err := data.PartitionBy(aug, "_bucket")
		if err != nil {
			return nil, err
		}
		pt.Name = tb.Name
		return pt, nil
	}
	return data.PartitionBy(tb, col)
}

// Expedia generates the 3-table hotel-ranking dataset: searches (fact),
// hotels and destinations (dims). 8 numeric + 20 categorical inputs.
func Expedia(rows int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	nHotels, nDests := 400, 150
	hotels := dimTable("hotels", "prop_id", nHotels, 2, 6, 40, rng)
	dests := dimTable("destinations", "dest_id", nDests, 2, 6, 36, rng)

	ids := make([]int64, rows)
	propFK := make([]int64, rows)
	destFK := make([]int64, rows)
	numNames := []string{"price_usd", "srch_length_of_stay", "srch_adults_count", "orig_destination_distance"}
	nums := make(map[string][]float64)
	for _, n := range numNames {
		nums[n] = make([]float64, rows)
	}
	catNames := []string{"site_id", "visitor_location", "srch_saturday_night", "random_bool",
		"promotion_flag", "channel", "device", "member_tier"}
	cards := []int{12, 60, 2, 2, 2, 8, 3, 6}
	cats := make(map[string][]string)
	for _, n := range catNames {
		cats[n] = make([]string, rows)
	}
	label := make([]float64, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		propFK[i] = int64(rng.Intn(nHotels))
		destFK[i] = int64(rng.Intn(nDests))
		nums["price_usd"][i] = 80 + 120*rng.Float64()
		nums["srch_length_of_stay"][i] = float64(1 + rng.Intn(10))
		nums["srch_adults_count"][i] = float64(1 + rng.Intn(4))
		nums["orig_destination_distance"][i] = 2000 * rng.Float64()
		for ci, n := range catNames {
			cats[n][i] = fmt.Sprintf("v%d", rng.Intn(cards[ci]))
		}
		z := -0.01*(nums["price_usd"][i]-140) + 0.2*nums["srch_length_of_stay"][i] - 0.5
		if cats["promotion_flag"][i] == "v1" {
			z += 1.0
		}
		if cats["srch_saturday_night"][i] == "v1" {
			z += 0.4
		}
		// Joined hotel quality contributes.
		z += 0.3 * hotels.Col("h_num0").F64[propFK[i]]
		if z+rng.NormFloat64() > 0 {
			label[i] = 1
		}
	}
	cols := []*data.Column{
		data.NewInt("srch_id", ids),
		data.NewInt("prop_id", propFK),
		data.NewInt("dest_id", destFK),
	}
	spec := train.Spec{Label: "label"}
	for _, n := range numNames {
		cols = append(cols, data.NewFloat(n, nums[n]))
		spec.Numeric = append(spec.Numeric, n)
	}
	for _, n := range catNames {
		cols = append(cols, data.NewString(n, cats[n]))
		spec.Categorical = append(spec.Categorical, n)
	}
	cols = append(cols, data.NewFloat("label", label))
	searches := data.DictEncodeTable(data.MustNewTable("searches", cols...))
	// Dim tables contribute 2 numeric + 6 categorical each.
	spec.Numeric = append(spec.Numeric, "h_num0", "h_num1", "d_num0", "d_num1")
	for i := 0; i < 6; i++ {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("h_cat%d", i))
	}
	for i := 0; i < 6; i++ {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("d_cat%d", i))
	}
	joins := []JoinSpec{
		{LeftAlias: "t0", LeftKey: "prop_id", Table: "hotels", Alias: "t1", RightKey: "prop_id"},
		{LeftAlias: "t0", LeftKey: "dest_id", Table: "destinations", Alias: "t2", RightKey: "dest_id"},
	}
	sample := joinSample(searches, 1000, rng,
		dim{hotels, "prop_id", "prop_id"}, dim{dests, "dest_id", "dest_id"})
	return &Dataset{
		Name:        "expedia",
		Tables:      []*data.Table{dropLabel(searches), hotels, dests},
		Joins:       joins,
		Spec:        spec,
		TrainSample: sample,
	}
}

// Flights generates the 4-table dataset: flights (fact) joined to
// airlines, origin and destination airports. 4 numeric + 33 categorical.
func Flights(rows int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	nAirlines, nAirports := 40, 120
	airlines := dimTable("airlines", "airline_id", nAirlines, 1, 9, 24, rng)
	origins := dimTable("airports_origin", "o_airport_id", nAirports, 0, 10, 40, rng)
	dest := dimTable("airports_dest", "d_airport_id", nAirports, 1, 10, 40, rng)
	renamePrefix(airlines, "al")
	renamePrefix(origins, "ao")
	renamePrefix(dest, "ad")

	ids := make([]int64, rows)
	alFK := make([]int64, rows)
	aoFK := make([]int64, rows)
	adFK := make([]int64, rows)
	numNames := []string{"distance", "dep_delay"}
	nums := map[string][]float64{}
	for _, n := range numNames {
		nums[n] = make([]float64, rows)
	}
	catNames := []string{"month", "day_of_week", "dep_block", "carrier_class"}
	cards := []int{12, 7, 5, 3}
	cats := map[string][]string{}
	for _, n := range catNames {
		cats[n] = make([]string, rows)
	}
	label := make([]float64, rows)
	for i := 0; i < rows; i++ {
		ids[i] = int64(i)
		alFK[i] = int64(rng.Intn(nAirlines))
		aoFK[i] = int64(rng.Intn(nAirports))
		adFK[i] = int64(rng.Intn(nAirports))
		nums["distance"][i] = 100 + 2500*rng.Float64()
		nums["dep_delay"][i] = -5 + 60*rng.Float64()
		for ci, n := range catNames {
			cats[n][i] = fmt.Sprintf("v%d", rng.Intn(cards[ci]))
		}
		z := 0.04*(nums["dep_delay"][i]-15) - 0.0002*nums["distance"][i]
		if cats["dep_block"][i] == "v4" {
			z += 0.8
		}
		if cats["month"][i] == "v11" || cats["month"][i] == "v0" {
			z += 0.5
		}
		z += 0.4 * airlines.Col("al_num0").F64[alFK[i]]
		if z+rng.NormFloat64() > 0 {
			label[i] = 1
		}
	}
	cols := []*data.Column{
		data.NewInt("flight_id", ids),
		data.NewInt("airline_id", alFK),
		data.NewInt("o_airport_id", aoFK),
		data.NewInt("d_airport_id", adFK),
	}
	spec := train.Spec{Label: "label"}
	for _, n := range numNames {
		cols = append(cols, data.NewFloat(n, nums[n]))
		spec.Numeric = append(spec.Numeric, n)
	}
	for _, n := range catNames {
		cols = append(cols, data.NewString(n, cats[n]))
		spec.Categorical = append(spec.Categorical, n)
	}
	cols = append(cols, data.NewFloat("label", label))
	flights := data.DictEncodeTable(data.MustNewTable("flights", cols...))
	spec.Numeric = append(spec.Numeric, "al_num0", "ad_num0")
	for i := 0; i < 9; i++ {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("al_cat%d", i))
	}
	for i := 0; i < 10; i++ {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("ao_cat%d", i))
	}
	for i := 0; i < 10; i++ {
		spec.Categorical = append(spec.Categorical, fmt.Sprintf("ad_cat%d", i))
	}
	joins := []JoinSpec{
		{LeftAlias: "t0", LeftKey: "airline_id", Table: "airlines", Alias: "t1", RightKey: "al_airline_id"},
		{LeftAlias: "t0", LeftKey: "o_airport_id", Table: "airports_origin", Alias: "t2", RightKey: "ao_o_airport_id"},
		{LeftAlias: "t0", LeftKey: "d_airport_id", Table: "airports_dest", Alias: "t3", RightKey: "ad_d_airport_id"},
	}
	sample := joinSample(flights, 1000, rng,
		dim{airlines, "airline_id", "al_airline_id"},
		dim{origins, "o_airport_id", "ao_o_airport_id"},
		dim{dest, "d_airport_id", "ad_d_airport_id"})
	return &Dataset{
		Name:        "flights",
		Tables:      []*data.Table{dropLabel(flights), airlines, origins, dest},
		Joins:       joins,
		Spec:        spec,
		TrainSample: sample,
	}
}

// dimTable builds a dimension table: key column plus nNum numeric and nCat
// categorical attribute columns (cardinality up to maxCard), with the
// categoricals dictionary-encoded like every generated table.
func dimTable(name, key string, rows, nNum, nCat, maxCard int, rng *rand.Rand) *data.Table {
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i)
	}
	cols := []*data.Column{data.NewInt(key, keys)}
	prefix := name[:1]
	for j := 0; j < nNum; j++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		cols = append(cols, data.NewFloat(fmt.Sprintf("%s_num%d", prefix, j), vals))
	}
	for j := 0; j < nCat; j++ {
		card := 2 + rng.Intn(maxCard-1)
		vals := make([]string, rows)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d", rng.Intn(card))
		}
		cols = append(cols, data.NewString(fmt.Sprintf("%s_cat%d", prefix, j), vals))
	}
	return data.DictEncodeTable(data.MustNewTable(name, cols...))
}

// renamePrefix rewrites a dim table's column prefixes (including the key)
// to the given prefix.
func renamePrefix(t *data.Table, prefix string) {
	renamed := make([]*data.Column, len(t.Cols))
	for i, c := range t.Cols {
		nc := *c
		// Attribute columns ("a_num0", "a_cat3") swap their single-letter
		// prefix; key columns get the prefix prepended whole.
		if len(c.Name) > 2 && c.Name[1] == '_' &&
			(strings.Contains(c.Name, "_num") || strings.Contains(c.Name, "_cat")) {
			nc.Name = prefix + c.Name[1:]
		} else {
			nc.Name = prefix + "_" + c.Name
		}
		renamed[i] = &nc
	}
	nt := data.MustNewTable(t.Name, renamed...)
	*t = *nt
}

type dim struct {
	table   *data.Table
	factKey string
	dimKey  string
}

// joinSample materializes a joined sample of the fact table with all dims
// (for training), keeping the label column.
func joinSample(fact *data.Table, n int, rng *rand.Rand, dims ...dim) *data.Table {
	if n > fact.NumRows() {
		n = fact.NumRows()
	}
	idx := rng.Perm(fact.NumRows())[:n]
	out := fact.Gather(idx)
	for _, d := range dims {
		fk := out.Col(d.factKey)
		dimIdx := make(map[string]int, d.table.NumRows())
		keyCol := d.table.Col(d.dimKey)
		for i := 0; i < d.table.NumRows(); i++ {
			dimIdx[keyCol.AsString(i)] = i
		}
		gather := make([]int, out.NumRows())
		for i := 0; i < out.NumRows(); i++ {
			gather[i] = dimIdx[fk.AsString(i)]
		}
		dimRows := d.table.Gather(gather)
		for _, c := range dimRows.Cols {
			if c.Name == d.dimKey {
				continue
			}
			_ = out.AddColumn(c)
		}
	}
	return out
}

func sampleRows(t *data.Table, n int, rng *rand.Rand) *data.Table {
	if n >= t.NumRows() {
		return t
	}
	idx := rng.Perm(t.NumRows())[:n]
	return t.Gather(idx)
}

// dropLabel returns the table without its label column (prediction queries
// run over unlabeled data).
func dropLabel(t *data.Table) *data.Table {
	var names []string
	for _, c := range t.Cols {
		if c.Name != "label" {
			names = append(names, c.Name)
		}
	}
	out, err := t.Project(names)
	if err != nil {
		panic(err)
	}
	return out
}

// All returns the four datasets at the given fact-table scale.
func All(rows int, seed int64) []*Dataset {
	return []*Dataset{
		CreditCard(rows, seed),
		Hospital(rows, seed+1),
		Expedia(rows, seed+2),
		Flights(rows, seed+3),
	}
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"raven/internal/data"
	"raven/internal/model"
)

// inputs is what the generator hands the engine: files on disk, exactly
// what `ravensql -csv … -model …` would be started with. The in-memory
// tables are dropped once written; only the training sample (the ML probe
// input) and the query texts survive generation.
type inputs struct {
	tables []string // CSV paths, fact table first
	model  string   // model JSON path
	sha256 string   // over every file's bytes, in the order above
	cycle  []text   // closed-loop query texts (nil for point_lookup)
	pipe   *model.Pipeline
	sample *data.Table // joined training sample: has every model input
	keys   []int       // seeded permutation of the fact keys (point ops)
	next   int         // cursor into keys: no key is handed out twice
}

// The model is trained once per run on modelRows rows generated from
// modelSeed, whatever the run's seed: the seed varies the tables, the model
// belongs to the workload's definition. A model that changed with the seed
// would change the plan with it — which columns model-projection pushdown
// lets the scan skip, how large the MLtoSQL expression is — and latency
// would differ between seeds by more than any bound (point_lookup's median
// ranged from 83 to 129 ms over ten seeds before the model was fixed).
const (
	modelSeed = 1
	modelRows = 2000
)

// generate builds the workload's inputs from the seed under dir. Same
// seed, same bytes.
func generate(w workload, seed int64, dir string) (*inputs, error) {
	trainSet := w.dataset(modelRows, modelSeed)
	pipe, err := trainSet.Train(w.kind, w.tune)
	if err != nil {
		return nil, fmt.Errorf("training %s model: %w", w.name, err)
	}
	ds := w.dataset(w.rows, seed)
	in := &inputs{pipe: pipe, sample: trainSet.TrainSample}
	if w.cycle != nil {
		in.cycle = w.cycle(ds, pipe.Name)
	} else {
		in.keys = rand.New(rand.NewSource(seed)).Perm(w.rows)
	}
	sum := sha256.New()
	for _, t := range ds.Tables {
		path := filepath.Join(dir, t.Name+".csv")
		if err := writeCSV(path, t, sum); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		in.tables = append(in.tables, path)
	}
	in.model = filepath.Join(dir, "model.json")
	if err := pipe.Save(in.model); err != nil {
		return nil, fmt.Errorf("saving model: %w", err)
	}
	b, err := os.ReadFile(in.model)
	if err != nil {
		return nil, err
	}
	sum.Write(b)
	in.sha256 = hex.EncodeToString(sum.Sum(nil))
	return in, nil
}

// writeCSV streams t as CSV to path and into sum.
func writeCSV(path string, t *data.Table, sum io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<20)
	err = data.WriteCSV(t, bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// nextKey hands out the next point-lookup key. Not safe for concurrent
// use: the open-loop dispatcher and the single-client passes are the only
// callers.
func (in *inputs) nextKey() int {
	k := in.keys[in.next%len(in.keys)]
	in.next++
	return k
}

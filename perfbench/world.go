package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	td "truthdiscovery"
	"truthdiscovery/internal/datagen"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/value"
)

// worldSeed generates the simulated collections. It is fixed, as the
// paper studies one Stock and one Flight collection: an iterative
// method's round count, and with it every timing, moves by up to 3x
// between worlds of different seeds, which would drown any change the
// benchmark is meant to show. --seed chooses what the workloads do with
// the collections instead: the replayed days and the reads and writes.
const worldSeed = 1

// The paper's study snapshots (2011-07-07 for Stock, 2011-12-08 for
// Flight) sit at these day indexes of the simulated collection periods,
// the same days experiments.DefaultConfig uses.
const (
	stockStudyDay  = 6
	flightStudyDay = 7
)

// domain is one paper-scale snapshot with its planted truth.
type domain struct {
	name  string
	ds    *model.Dataset
	snap  *model.Snapshot
	truth *model.TruthTable
}

// stockDomain generates the paper-scale Stock snapshot (1,000 stocks x 16
// attributes, 55 sources) with tolerances derived from it, as the
// experiments do.
func stockDomain() domain {
	gen := datagen.NewStock(datagen.DefaultStockConfig(worldSeed))
	ds := gen.Dataset()
	snap := gen.Snapshot(stockStudyDay)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	return domain{name: "stock", ds: ds, snap: snap, truth: gen.Truth(stockStudyDay)}
}

// flightDomain generates the paper-scale Flight snapshot (1,200 flights x
// 6 attributes, 38 sources).
func flightDomain() domain {
	gen := datagen.NewFlight(datagen.DefaultFlightConfig(worldSeed))
	ds := gen.Dataset()
	snap := gen.Snapshot(flightStudyDay)
	ds.ComputeTolerances(value.DefaultAlpha, snap)
	return domain{name: "flight", ds: ds, snap: snap, truth: gen.Truth(flightStudyDay)}
}

// stockPeriod generates days [first, first+days) of the Stock collection
// period and derives one tolerance regime over all of them, as a
// multi-day truthserved stream does. A day's snapshot depends on nothing
// but the seed and the day, so the days are generated on all processors.
func stockPeriod(first, days int) (*model.Dataset, []*model.Snapshot) {
	gen := datagen.NewStock(datagen.DefaultStockConfig(worldSeed))
	ds := gen.Dataset()
	snaps := make([]*model.Snapshot, days)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := int(next.Add(1) - 1); d < days; d = int(next.Add(1) - 1) {
				snaps[d] = gen.Snapshot(first + d)
			}
		}()
	}
	wg.Wait()
	ds.ComputeTolerances(value.DefaultAlpha, snaps...)
	return ds, snaps
}

// sameAnswers reports the first difference between two answer lists,
// comparing every field and the floats bit for bit. It returns how many
// answers differ only in the sign of a zero value; the caller decides
// whether those fail (see stockDays.check).
func sameAnswers(got, want []td.Answer) (signedZeros int, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Item != w.Item || g.ObjectKey != w.ObjectKey || g.Attribute != w.Attribute ||
			g.Value.Kind != w.Value.Kind || g.Value.Text != w.Value.Text ||
			math.Float64bits(g.Value.Gran) != math.Float64bits(w.Value.Gran) ||
			g.Support != w.Support || g.Providers != w.Providers {
			return signedZeros, fmt.Errorf("answer %d (%s/%s): got %+v, want %+v", i, w.ObjectKey, w.Attribute, *g, *w)
		}
		if math.Float64bits(g.Value.Num) != math.Float64bits(w.Value.Num) {
			if g.Value.Num != 0 || w.Value.Num != 0 {
				return signedZeros, fmt.Errorf("answer %d (%s/%s): got %+v, want %+v", i, w.ObjectKey, w.Attribute, *g, *w)
			}
			signedZeros++ // +0 against -0
		}
	}
	return signedZeros, nil
}

// wireAnswer is one answer as the /v1 API serves it.
type wireAnswer struct {
	Object    string  `json:"object"`
	Attribute string  `json:"attribute"`
	Kind      string  `json:"kind"`
	Num       float64 `json:"num"`
	Gran      float64 `json:"gran"`
	Text      string  `json:"text"`
	Support   int     `json:"support"`
	Providers int     `json:"providers"`
}

// sameWire reports the first difference between served answers and the
// answers of a direct Fuse, floats compared bit for bit.
func sameWire(got []wireAnswer, want []td.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %d answers, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Object != w.ObjectKey || g.Attribute != w.Attribute || g.Kind != w.Value.Kind.String() ||
			g.Text != w.Value.Text ||
			math.Float64bits(g.Num) != math.Float64bits(w.Value.Num) ||
			math.Float64bits(g.Gran) != math.Float64bits(w.Value.Gran) ||
			g.Support != w.Support || g.Providers != w.Providers {
			return fmt.Errorf("answer %d (%s/%s): served %+v, want %+v", i, w.ObjectKey, w.Attribute, *g, *w)
		}
	}
	return nil
}

// within reports whether two values agree within tol: equal text, or
// numbers (times) at most tol apart.
func within(a, b value.Value, tol float64) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == value.Text {
		return a.Text == b.Text
	}
	return math.Abs(a.Num-b.Num) <= tol
}

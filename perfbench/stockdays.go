package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	td "truthdiscovery"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
	"truthdiscovery/internal/serve"
	"truthdiscovery/internal/store"
)

const (
	// stockPeriodDays is the simulated Stock period (July 2011's trading
	// days); the seed picks which stockWindow consecutive days of it a
	// run replays.
	stockPeriodDays = 21
	// stockWindow is the number of days replayed of the Stock period.
	stockWindow   = 8
	stockDaysMeth = "AccuFormatAttr"
	stockShards   = 4
)

// stockDays replays the Stock period as a daily pipeline: each day's
// snapshot is diffed against the previous day and pushed through
// Refresher.Apply, which advances the sharded engine, persists the run
// to a store and swaps the served view. A pass walks the window once,
// alternating direction, so every pass makes stockWindow-1 day-to-day
// transitions at the period's churn.
type stockDays struct {
	tr    *tracer
	ds    *model.Dataset
	snaps []*model.Snapshot
	eng   serve.Engine
	srv   *serve.Server
	st    *store.Store
	ref   *serve.Refresher
	dir   string

	pos, step int
	version   uint64
	// served keeps the view published for each day of the first measured
	// pass, for check.
	served []dayView

	// shadow is a flat problem the traced run maintains beside the
	// sharded engine, to time UpdateProblem on each day's delta.
	shadow     *fusion.Problem
	probeDelta *model.Delta
	probeReq   uint64
	needs      fusion.BuildOptions
	spec       model.ShardSpec
	names      []string
}

type dayView struct {
	day  int
	view *serve.View
}

func setupStockDays(e *env) (instance, error) {
	first := int(uint64(e.seed) % uint64(stockPeriodDays-stockWindow+1))
	ds, snaps := stockPeriod(first, stockWindow)
	dir, err := os.MkdirTemp(e.out, "stock-days-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	eng, err := serve.NewEngine(ds, snaps[0], nil, stockDaysMeth, serve.EngineOptions{
		Shards:  stockShards,
		Planner: &fusion.Planner{Mode: fusion.PlannerAuto},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.NewServer()
	s := &stockDays{
		tr: e.tr, ds: ds, snaps: snaps, eng: eng, srv: srv, st: st, dir: dir,
		step: 1, spec: model.RangeShards(stockShards, len(ds.Items)),
	}
	s.ref = serve.NewRefresher(ds, eng, srv, st, "perfbench/stock-days", snaps[0].Day, snaps[0].Label, fusion.Options{})
	v, err := s.ref.Publish()
	if err != nil {
		s.close()
		return nil, err
	}
	s.version = v.Version
	if s.tr != nil {
		m, _ := fusion.ByName(stockDaysMeth)
		s.needs = m.Needs()
		s.shadow = fusion.Build(ds, snaps[0], nil, s.needs)
		for _, id := range eng.Roster() {
			s.names = append(s.names, ds.Sources[id].Name)
		}
	}
	return s, nil
}

// next returns the day the walk moves to, turning at either end.
func (s *stockDays) next() int {
	if s.pos+s.step < 0 || s.pos+s.step >= len(s.snaps) {
		s.step = -s.step
	}
	return s.pos + s.step
}

func (s *stockDays) warm() error {
	from := s.pos
	_, err := s.day(s.next())
	if err == nil && s.tr != nil {
		err = s.probe(from)
	}
	return err
}

func (s *stockDays) pass(rec *recorder) error {
	keep := s.served == nil
	for i := 0; i < len(s.snaps)-1; i++ {
		from, to := s.pos, s.next()
		t0 := time.Now()
		v, err := s.day(to)
		lat := time.Since(t0)
		rec.add(kindOp|kindWrite, lat, err)
		if err != nil {
			return fmt.Errorf("day %d: %w", to, err)
		}
		if s.tr != nil {
			if err := s.probe(from); err != nil {
				return fmt.Errorf("probing day %d: %w", to, err)
			}
		}
		if keep {
			s.served = append(s.served, dayView{day: to, view: v})
		}
	}
	// Keep the store small between passes; pruning is not part of a day.
	return s.st.Prune(2)
}

// day moves the pipeline to snapshot `to`: Diff against the current day,
// then Refresher.Apply. Versions must advance by one per day.
func (s *stockDays) day(to int) (*serve.View, error) {
	var v *serve.View
	var err error
	if s.tr != nil {
		v, err = s.tracedDay(to)
	} else {
		var dl *model.Delta
		if dl, err = s.snaps[s.pos].Diff(s.snaps[to]); err != nil {
			return nil, err
		}
		v, _, err = s.ref.Apply(dl)
	}
	if err != nil {
		return nil, err
	}
	if v.Version != s.version+1 {
		return nil, fmt.Errorf("published version %d after version %d", v.Version, s.version)
	}
	if cur := s.srv.View(); cur != v {
		return nil, fmt.Errorf("server serves version %d, not the published %d", cur.Version, v.Version)
	}
	s.version = v.Version
	s.pos = to
	return v, nil
}

// tracedDay makes the calls Refresher.Apply makes, one stage at a time:
// the sharded engine's advance, its answers, the store save and the
// swap. It keeps the delta for probe.
func (s *stockDays) tracedDay(to int) (*serve.View, error) {
	tr := s.tr
	req := tr.newReq()
	root := tr.begin(req, 0, "client.day", "")
	d := tr.begin(req, root.id(), "model.diff", "")
	dl, err := s.snaps[s.pos].Diff(s.snaps[to])
	d.end()
	if err != nil {
		return nil, err
	}
	tr.sample("model.delta_ops", float64(dl.Size()))

	rf := tr.begin(req, root.id(), "serve.refresh", "")
	a := tr.begin(req, rf.id(), "fusion.advance", "")
	stats, err := s.eng.Advance(s.ds, dl, fusion.Options{})
	a.end()
	if err != nil {
		return nil, err
	}
	if stats.Plan != nil {
		tr.count("fusion.plan."+string(stats.Plan.Path), 1)
	}
	an := tr.begin(req, rf.id(), "fusion.answers", "")
	answers, res := s.eng.Current(s.ds)
	an.end()
	now := time.Now().Unix()
	v := serve.NewView(serve.View{
		Method: s.eng.Method(), Fingerprint: "perfbench/stock-days",
		Day: dl.ToDay, Label: dl.ToLabel, CreatedUnix: now,
		SourceIDs: s.eng.Roster(), SourceNames: s.names,
		Trust: res.Trust, AttrTrust: res.AttrTrust, Answers: answers, Posteriors: res.Posteriors,
	})
	sv := tr.begin(req, rf.id(), "store.save", "")
	version, err := s.st.Save(v.Run(now))
	var runMB float64
	if fi, serr := os.Stat(filepath.Join(s.st.Dir(), fmt.Sprintf("run-%016x.tdr", version))); serr == nil {
		runMB = float64(fi.Size()) / (1 << 20)
	}
	sv.endN(runMB)
	if err != nil {
		return nil, err
	}
	v.Version = version
	sw := tr.begin(req, rf.id(), "serve.swap", "")
	s.srv.Swap(v)
	sw.end()
	rf.end()
	root.end()

	s.probeDelta, s.probeReq = dl, req
	return v, nil
}

// probe times, apart from the day it follows, the stages the sharded
// advance runs inside one call — Delta.Split, Snapshot.Apply and
// UpdateProblem — on that day's delta against a flat copy of the state.
func (s *stockDays) probe(from int) error {
	tr, dl, req := s.tr, s.probeDelta, s.probeReq
	pr := tr.begin(req, 0, "client.probe", "")
	defer pr.end()
	sp := tr.begin(req, pr.id(), "model.split", "")
	_, err := dl.Split(s.spec)
	sp.end()
	if err != nil {
		return err
	}
	ap := tr.begin(req, pr.id(), "model.apply", "")
	next, err := s.snaps[from].Apply(dl)
	ap.end()
	if err != nil {
		return err
	}
	up := tr.begin(req, pr.id(), "fusion.update", "")
	p, rebuilt := fusion.UpdateProblem(s.ds, next, s.shadow, dl.DirtyItems(), s.needs)
	up.endN(float64(len(rebuilt)))
	s.shadow = p
	return nil
}

// check compares each day the first measured pass served with a flat
// Fuse of that day's snapshot, bit for bit. One difference is counted
// instead of failing the run: an answer whose value is a zero of the
// other sign. Snapshot.Diff compares claim values with ==, so a claim
// that flips between +0 and -0 from one day to the next never enters the
// delta, and the engine keeps serving the old zero. Which days hit that
// depends on the seed; CHANGES.md records it as a finding.
func (s *stockDays) check() error {
	want := map[int][]td.Answer{}
	signedZeros := 0
	for _, dv := range s.served {
		w, ok := want[dv.day]
		if !ok {
			var err error
			if w, err = td.Fuse(s.ds, s.snaps[dv.day], stockDaysMeth, td.FuseOptions{}); err != nil {
				return err
			}
			want[dv.day] = w
		}
		if dv.view.Day != s.snaps[dv.day].Day {
			return fmt.Errorf("version %d serves day %d, want %d", dv.view.Version, dv.view.Day, s.snaps[dv.day].Day)
		}
		n, err := sameAnswers(dv.view.Answers, w)
		if err != nil {
			return fmt.Errorf("day %d (version %d): %w", dv.day, dv.view.Version, err)
		}
		signedZeros += n
	}
	logf("stock-days check: %d served days identical to flat Fuse; %d answers differ only in the sign of a zero",
		len(s.served), signedZeros)
	return nil
}

func (s *stockDays) close() {
	os.RemoveAll(s.dir)
}

package main

import (
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
)

// stageEngine is the traced serve-live run's engine: it makes the calls
// the flat incremental engine's full-path advance makes — Snapshot.Apply,
// UpdateProblem, Method.Run — one stage at a time, and AnswersFor for the
// view, each in its own span under the flush that caused it. The planner
// picks the full path for AccuPr at zero trust tolerance, so the answers
// are the ones the untraced engine serves; check confirms it.
type stageEngine struct {
	s     *serving
	m     fusion.Method
	key   string
	needs fusion.BuildOptions
	snap  *model.Snapshot
	p     *fusion.Problem
	res   *fusion.Result
}

func newStageEngine(s *serving, method string) *stageEngine {
	m, _ := fusion.ByName(method)
	e := &stageEngine{s: s, m: m, key: "stock." + method, needs: m.Needs(), snap: s.base}
	e.p = fusion.Build(s.ds, s.base, nil, e.needs)
	e.res = m.Run(e.p, fusion.Options{})
	return e
}

func (e *stageEngine) Method() string           { return e.m.Name() }
func (e *stageEngine) Roster() []model.SourceID { return e.p.SourceIDs }

// parent returns the request and span of the flush in progress.
func (e *stageEngine) parent() (uint64, uint64) {
	if f := e.s.flushSpan.Load(); f != nil {
		return f.s.Req, f.id()
	}
	return 0, 0
}

func (e *stageEngine) Current(ds *model.Dataset) ([]fusion.Answer, *fusion.Result) {
	req, parent := e.parent()
	sp := e.s.tr.begin(req, parent, "fusion.answers", "")
	defer sp.end()
	return fusion.AnswersFor(ds, e.p, e.res), e.res
}

func (e *stageEngine) Advance(ds *model.Dataset, dl *model.Delta, opts fusion.Options) (fusion.IncrementalStats, error) {
	tr := e.s.tr
	req, parent := e.parent()
	a := tr.begin(req, parent, "model.apply", "")
	next, err := e.snap.Apply(dl)
	a.end()
	if err != nil {
		return fusion.IncrementalStats{}, err
	}
	u := tr.begin(req, parent, "fusion.update", "")
	p, rebuilt := fusion.UpdateProblem(ds, next, e.p, dl.DirtyItems(), e.needs)
	u.endN(float64(len(rebuilt)))
	r := tr.begin(req, parent, "fusion.run", e.key)
	res := e.m.Run(p, opts)
	r.endN(float64(res.Rounds))
	e.snap, e.p, e.res = next, p, res
	return fusion.IncrementalStats{Mode: fusion.ModeFull, DirtyItems: len(rebuilt), TotalItems: len(p.Items)}, nil
}

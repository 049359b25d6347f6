package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	td "truthdiscovery"
	"truthdiscovery/internal/fusion"
	"truthdiscovery/internal/model"
)

// precisionFloor is the least precision against the simulator's planted
// truth that every (domain, method) answer set must reach. The sixteen
// methods reach 0.84-0.96 on the paper-scale snapshots; the floor only
// catches answers that have stopped tracking the truth.
const precisionFloor = 0.6

// paperFuse runs the public Fuse once per method on the Stock and Flight
// study snapshots: the Table 7 / Figure 12 batch. Its inputs are the
// paper's two snapshots whatever the seed.
type paperFuse struct {
	tr      *tracer
	doms    []domain
	methods []fusion.Method
	// answers keeps the first measured pass's answer sets for check.
	answers map[string][]td.Answer
}

func setupPaperFuse(e *env) (instance, error) {
	return &paperFuse{
		tr:      e.tr,
		doms:    []domain{stockDomain(), flightDomain()},
		methods: fusion.Methods(),
	}, nil
}

func (p *paperFuse) warm() error {
	// One Fuse per method on the smaller Flight snapshot.
	for _, m := range p.methods {
		if _, err := td.Fuse(p.doms[1].ds, p.doms[1].snap, m.Name(), td.FuseOptions{}); err != nil {
			return err
		}
	}
	return nil
}

func (p *paperFuse) pass(rec *recorder) error {
	keep := p.answers == nil
	if keep {
		p.answers = map[string][]td.Answer{}
	}
	// The 32 calls take from 15 ms to over a second, so their median
	// jumps between neighbouring calls; the pass reports their geometric
	// mean as its one typical call latency instead.
	logSum := 0.0
	for _, d := range p.doms {
		for _, m := range p.methods {
			t0 := time.Now()
			ans, err := p.fuse(d, m)
			lat := time.Since(t0)
			rec.count(err)
			if err != nil {
				return fmt.Errorf("%s %s: %w", d.name, m.Name(), err)
			}
			logSum += math.Log(float64(lat))
			if keep {
				p.answers[d.name+"/"+m.Name()] = ans
			}
		}
	}
	rec.record(kindOp|kindWrite, time.Duration(math.Exp(logSum/float64(len(p.doms)*len(p.methods)))))
	return nil
}

// fuse is the public Fuse call. The traced run makes the same calls
// stage by stage (Build, Method.Run, AnswersFor) so each is timed, and
// times AccuCopy's copy detection on the same problem apart from it.
func (p *paperFuse) fuse(d domain, m fusion.Method) ([]td.Answer, error) {
	if p.tr == nil {
		return td.Fuse(d.ds, d.snap, m.Name(), td.FuseOptions{})
	}
	tr := p.tr
	key := d.name + "." + m.Name()
	req := tr.newReq()
	root := tr.begin(req, 0, "client.fuse", key)
	b := tr.begin(req, root.id(), "fusion.build", d.name)
	needs := m.Needs()
	prob := fusion.Build(d.ds, d.snap, nil, needs)
	b.end()
	r := tr.begin(req, root.id(), "fusion.run", key)
	res := m.Run(prob, fusion.Options{})
	r.endN(float64(res.Rounds))
	a := tr.begin(req, root.id(), "fusion.answers", d.name)
	ans := fusion.AnswersFor(d.ds, prob, res)
	a.end()
	root.end()
	if m.Name() == "AccuCopy" {
		c := tr.begin(req, 0, "copydetect.detect", d.name)
		fusion.DebugDetect(prob, res.Chosen, res.Trust, fusion.Options{})
		c.end()
	}
	return ans, nil
}

// check verifies, for every (domain, method) answer set: one answer per
// claimed item in item order; each answer within the attribute's
// tolerance of a value some source claimed for the item; and precision
// against the planted truth at or above precisionFloor.
func (p *paperFuse) check() error {
	for _, d := range p.doms {
		claimed := claimsByItem(d.snap.Claims)
		items := make([]model.ItemID, 0, len(claimed))
		for it := range claimed {
			items = append(items, it)
		}
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		for _, m := range p.methods {
			ans := p.answers[d.name+"/"+m.Name()]
			if len(ans) != len(items) {
				return fmt.Errorf("%s %s: %d answers for %d claimed items", d.name, m.Name(), len(ans), len(items))
			}
			right, judged := 0, 0
			for i, a := range ans {
				if a.Item != items[i] {
					return fmt.Errorf("%s %s: answer %d is item %d, want %d", d.name, m.Name(), i, a.Item, items[i])
				}
				tol := d.ds.Tolerance(d.ds.Items[a.Item].Attr)
				found := false
				for _, c := range claimed[a.Item] {
					if within(c.Val, a.Value, tol) {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("%s %s: item %d answer %v matches no claimed value", d.name, m.Name(), a.Item, a.Value)
				}
				if t, ok := d.truth.Get(a.Item); ok {
					judged++
					if within(t, a.Value, tol) {
						right++
					}
				}
			}
			prec := float64(right) / float64(max(judged, 1))
			logf("paper-fuse check: %s %-15s precision %.4f over %d items", d.name, m.Name(), prec, judged)
			if judged == 0 || prec < precisionFloor {
				return fmt.Errorf("%s %s: precision %.4f over %d items is below the floor %.2f",
					d.name, m.Name(), prec, judged, precisionFloor)
			}
		}
	}
	return nil
}

// claimsByItem indexes a snapshot's claims by item.
func claimsByItem(claims []model.Claim) map[model.ItemID][]model.Claim {
	out := map[model.ItemID][]model.Claim{}
	for _, c := range claims {
		out[c.Item] = append(out[c.Item], c)
	}
	return out
}

func (p *paperFuse) close() {}

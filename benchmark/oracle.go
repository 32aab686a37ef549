package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/dataset"
	"pvoronoi/internal/extquery"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// probTolerance is how far a reply's probabilities may sum from 1 (k for
// k-NN).
const probTolerance = 1e-9

type scoredReply struct {
	Results []struct {
		ID   uint32  `json:"id"`
		Prob float64 `json:"prob"`
	} `json:"results"`
	Candidates int `json:"candidates"`
}

type step1Reply struct {
	Candidates []struct {
		ID uint32 `json:"id"`
	} `json:"candidates"`
}

// post sends one request and decodes a 200 reply into out.
func post(c *client, req request, out any) error {
	status, body, err := c.do(req.wire)
	if err != nil {
		return fmt.Errorf("%s: %w", opPath[req.kind], err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", opPath[req.kind], status, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: decoding reply: %w", opPath[req.kind], err)
	}
	return nil
}

// checkScored verifies a probability reply against the scan oracle's
// candidate set: the candidate count matches, every scored ID is a candidate
// (pvserve omits zero-probability candidates, so the scored IDs may be a
// subset) and the probabilities sum to want.
func checkScored(what string, r scoredReply, oracle []uncertain.ID, want float64) error {
	if r.Candidates != len(oracle) {
		return fmt.Errorf("%s: %d candidates, scan oracle has %d", what, r.Candidates, len(oracle))
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("%s: empty result", what)
	}
	var sum float64
	for _, res := range r.Results {
		if !slices.Contains(oracle, uncertain.ID(res.ID)) {
			return fmt.Errorf("%s: result %d is not in the scan oracle's candidate set %v", what, res.ID, oracle)
		}
		sum += res.Prob
	}
	if math.Abs(sum-want) > probTolerance {
		return fmt.Errorf("%s: probabilities sum to %.12f, want %g", what, sum, want)
	}
	return nil
}

func gateQuery(c *client, db *uncertain.DB, q geom.Point) error {
	oracle := bruteforce.PossibleNN(db, q)
	var s1 step1Reply
	if err := post(c, queryRequest(opPossibleNN, q), &s1); err != nil {
		return err
	}
	got := make([]uncertain.ID, len(s1.Candidates))
	for i, cand := range s1.Candidates {
		got[i] = uncertain.ID(cand.ID)
	}
	slices.Sort(got)
	if !slices.Equal(got, oracle) {
		return fmt.Errorf("possiblenn at %v: candidates %v, scan oracle %v", q, got, oracle)
	}
	var r scoredReply
	if err := post(c, queryRequest(opQuery, q), &r); err != nil {
		return err
	}
	return checkScored(fmt.Sprintf("query at %v", q), r, oracle, 1)
}

func gateKNN(c *client, db *uncertain.DB, q geom.Point) error {
	var r scoredReply
	if err := post(c, knnRequest(q), &r); err != nil {
		return err
	}
	return checkScored(fmt.Sprintf("possibleknn at %v", q), r, extquery.KNNCandidates(db, q, knnK), knnK)
}

func gateGroup(c *client, db *uncertain.DB, g []geom.Point) error {
	var r scoredReply
	if err := post(c, groupRequest(g), &r); err != nil {
		return err
	}
	return checkScored(fmt.Sprintf("groupnn at %v", g), r, extquery.GroupNNBruteForce(db, g, extquery.AggSum), 1)
}

// correctnessGate sends gateOps seeded ops of the workload's kinds and checks
// each against the scan oracles over db, which must hold exactly the objects
// pvserve serves.
func correctnessGate(addr string, w workloadSpec, db *uncertain.DB, seed int64, ops int) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	points := dataset.QueryPoints(db.Domain, ops, subSeed(seed, purposeGate))
	groups := genGroups(db.Domain, ops, subSeed(seed, purposeGate))
	for i := 0; i < ops; i++ {
		var err error
		switch {
		case w.Kind == kindExt && i%2 == 0:
			err = gateKNN(c, db, points[i])
		case w.Kind == kindExt:
			err = gateGroup(c, db, groups[i])
		default:
			err = gateQuery(c, db, points[i])
		}
		if err != nil {
			return fmt.Errorf("correctness gate, op %d: %w", i, err)
		}
	}
	return nil
}

// durabilityGate checks a restarted pvserve against what was acknowledged
// before the crash: the object count, every live inserted object visible in
// /v1/possiblenn at its own region centre (its min distance there is 0, so
// it is always a candidate) and no deleted ID visible at its former centre.
// It returns the number of checks made and how many failed.
func durabilityGate(c *child, wantObjects int, live, deleted []*uncertain.Object) (attempted, failed int, err error) {
	st, err := c.stats()
	if err != nil {
		return 0, 0, err
	}
	attempted++
	if st.Objects != wantObjects {
		logf("durability gate: %d objects after restart, want %d", st.Objects, wantObjects)
		failed++
	}
	cl, err := dial(c.addr)
	if err != nil {
		return attempted, failed, err
	}
	defer cl.close()
	visible := func(o *uncertain.Object) (bool, error) {
		var r step1Reply
		if err := post(cl, queryRequest(opPossibleNN, o.Region.Center()), &r); err != nil {
			return false, err
		}
		for _, cand := range r.Candidates {
			if uncertain.ID(cand.ID) == o.ID {
				return true, nil
			}
		}
		return false, nil
	}
	for _, o := range live {
		attempted++
		ok, err := visible(o)
		if err != nil {
			return attempted, failed, err
		}
		if !ok {
			logf("durability gate: acknowledged insert %d is not visible after restart", o.ID)
			failed++
		}
	}
	for _, o := range deleted {
		attempted++
		ok, err := visible(o)
		if err != nil {
			return attempted, failed, err
		}
		if ok {
			logf("durability gate: deleted object %d is visible after restart", o.ID)
			failed++
		}
	}
	return attempted, failed, nil
}

// Command feedbacksmoke is the end-to-end check of the continuous-
// learning loop, run in-process so CI needs no port coordination and
// the whole path can run under the race detector:
//
//	go run -race ./cmd/feedbacksmoke
//
// It learns a store from the generated corpus inside an incremental
// session, serves it with the session attached, reports a finding over
// a learned entry, warms the check cache with an identical request,
// then drives both feedback directions through POST /v1/feedback:
//
//  1. reject the finding by its id — the sink variable pins to 0, the
//     re-solve must reuse every constraint span, the published store
//     must be byte-identical to a fresh session's over the same corpus
//     and pins, the store generation must advance, and an identical
//     re-check (which was a cache hit moments before) must no longer
//     report the flow;
//  2. accept the same (symbol, role) — the pin flips to 1, the
//     generation advances again, and the finding reappears.
//
// Any divergence — a stale cache entry surviving the generation swap, a
// missing pin, an epoch that does not move, counters that do not add
// up — exits nonzero. This is the cheapest proof that finding IDs,
// verdict pinning, incremental re-solve, store publication, and
// structural cache invalidation compose.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
	"seldon/internal/service"
	"seldon/internal/spec"
	"seldon/internal/specio"
)

const corpusFiles = 40

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "feedbacksmoke:", err)
		os.Exit(1)
	}
}

func run() error {
	// Learn inside a session so the server can re-solve on feedback.
	seed := corpus.ExperimentSeed()
	files := corpus.Generate(corpus.Config{Files: corpusFiles}).FileMap()
	sess := incr.NewSession(seed, core.Config{Workers: 4})
	for name, src := range files {
		sess.SpliceSource(name, src)
	}
	res, _ := sess.Relearn()
	learned := res.LearnedEntries(seed)
	if len(learned) == 0 {
		return fmt.Errorf("corpus learned no non-seed entries")
	}

	// Pick a learned sink the corpus vocabulary lets us call directly
	// (rep shape "module.func()"), and synthesize a check body that
	// flows a seed source into it.
	var sink string
	for _, e := range learned {
		if e.Role == propgraph.Sink && strings.Count(e.Rep, ".") == 1 && strings.HasSuffix(e.Rep, "()") {
			sink = strings.TrimSuffix(e.Rep, "()")
			break
		}
	}
	if sink == "" {
		return fmt.Errorf("no module-level learned sink among %d learned entries", len(learned))
	}
	module := sink[:strings.IndexByte(sink, '.')]
	body := fmt.Sprintf("import %s\nimport flask\n\ndef handler():\n    v = flask.request.args.get(\"q\")\n    %s(v)\n", module, sink)

	srv := service.New(service.Config{
		Spec:    sess.LearnedSpec(),
		Meta:    specio.Meta{SeedEntries: seed.Len(), LearnedEntries: len(learned), Generator: "feedbacksmoke"},
		Session: sess,
		Workers: 2,
	})
	httpSrv, _, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()
	base := "http://" + httpSrv.Addr
	fmt.Printf("feedbacksmoke: serving %d entries on %s, probing learned sink %s()\n",
		sess.LearnedSpec().Len(), base, sink)

	epoch0, fb0, err := health(base)
	if err != nil {
		return err
	}
	if fb0 == nil {
		return fmt.Errorf("healthz has no feedback block with a session attached")
	}

	// Report the finding and warm the check cache with the identical body.
	first, err := check(base, body)
	if err != nil {
		return err
	}
	target, ok := findBySink(first, sink+"()")
	if !ok {
		return fmt.Errorf("check reported no finding for learned sink %s(): %+v", sink, first)
	}
	if target.ID == "" {
		return fmt.Errorf("finding has no id")
	}
	warm, err := check(base, body)
	if err != nil {
		return err
	}
	if warm.Total != first.Total {
		return fmt.Errorf("identical re-check diverged: %d findings, then %d", first.Total, warm.Total)
	}

	// Reject by finding id: the learned sink pins to 0, the store swaps
	// to a new generation, and the cached check result must not survive.
	rej, err := feedback(base, service.FeedbackRequest{FindingID: target.ID, Verdict: "reject"})
	if err != nil {
		return fmt.Errorf("reject: %w", err)
	}
	if len(rej.Pinned) == 0 {
		return fmt.Errorf("reject pinned no variables")
	}
	if rej.Epoch == "" || rej.Epoch == epoch0 {
		return fmt.Errorf("reject did not advance the generation: %q -> %q", epoch0, rej.Epoch)
	}
	if rej.SpansReused != sess.Len() {
		return fmt.Errorf("reject re-solve not incremental: spans reused %d/%d",
			rej.SpansReused, sess.Len())
	}
	if err := matchesFresh(files, seed, rej); err != nil {
		return err
	}
	after, err := check(base, body)
	if err != nil {
		return err
	}
	if _, still := findBySink(after, sink+"()"); still {
		return fmt.Errorf("rejected flow into %s() still reported after re-solve", sink)
	}
	if after.Total >= first.Total {
		return fmt.Errorf("finding count did not drop after reject: %d -> %d", first.Total, after.Total)
	}

	// Accept the same symbol: the pin flips to 1 and the finding returns.
	acc, err := feedback(base, service.FeedbackRequest{Symbol: sink + "()", Role: "sink", Verdict: "accept"})
	if err != nil {
		return fmt.Errorf("accept: %w", err)
	}
	if acc.Epoch == rej.Epoch || acc.Epoch == "" {
		return fmt.Errorf("accept did not advance the generation: %q -> %q", rej.Epoch, acc.Epoch)
	}
	restored, err := check(base, body)
	if err != nil {
		return err
	}
	if _, back := findBySink(restored, sink+"()"); !back {
		return fmt.Errorf("accepted sink %s() not reported after re-solve", sink)
	}

	epochN, fbN, err := health(base)
	if err != nil {
		return err
	}
	if epochN != acc.Epoch {
		return fmt.Errorf("healthz epoch %q, want the accept generation %q", epochN, acc.Epoch)
	}
	if fbN == nil || fbN.Accepted != 1 || fbN.Rejected != 1 || fbN.Resolves != 2 || fbN.PinnedVars != 1 {
		return fmt.Errorf("feedback counters wrong: %+v", fbN)
	}

	fmt.Printf("feedbacksmoke OK: reject dropped %d->%d findings, accept restored %d; "+
		"generations %s -> %s -> %s, spans reused %d/%d\n",
		first.Total, after.Total, restored.Total,
		short(epoch0), short(rej.Epoch), short(acc.Epoch), rej.SpansReused, sess.Len())
	return nil
}

// matchesFresh learns files in a fresh session carrying the verdict's
// pins and requires its store, under the metadata the feedback handler
// publishes with, to have the fingerprint of the store the verdict
// published: a relearned session must equal a from-scratch one.
func matchesFresh(files map[string]string, seed *spec.Spec, v *service.FeedbackResponse) error {
	fresh := incr.NewSession(seed, core.Config{Workers: 1})
	for name, src := range files {
		fresh.SpliceSource(name, src)
	}
	for _, p := range v.Pinned {
		for _, role := range []propgraph.Role{propgraph.Source, propgraph.Sanitizer, propgraph.Sink} {
			if role.String() == p.Role {
				fresh.Pin(p.Symbol, role, p.Value)
			}
		}
	}
	res, _ := fresh.Relearn()
	fp, err := specio.FingerprintStore(fresh.LearnedSpec(), specio.Meta{
		CorpusFiles:    fresh.Len(),
		Events:         len(res.Graph.Events),
		SeedEntries:    seed.Len(),
		LearnedEntries: len(res.LearnedEntries(seed)),
		Generator:      "seldond/feedback",
	})
	if err != nil {
		return err
	}
	if fp != v.StoreFingerprint {
		return fmt.Errorf("store published after the verdict (%s) differs from a fresh session's (%s)",
			short(v.StoreFingerprint), short(fp))
	}
	return nil
}

func findBySink(r *service.CheckResponse, sinkRep string) (service.Finding, bool) {
	for _, f := range r.Findings {
		if f.Sink == sinkRep {
			return f, true
		}
	}
	return service.Finding{}, false
}

func check(base, body string) (*service.CheckResponse, error) {
	resp, err := http.Post(base+"/v1/check?filename=probe.py", "text/x-python", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("check: status %d", resp.StatusCode)
	}
	var out service.CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func feedback(base string, req service.FeedbackRequest) (*service.FeedbackResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/feedback", "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out service.FeedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func health(base string) (epoch string, fb *service.FeedbackHealth, err error) {
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	var out service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", nil, err
	}
	return out.Epoch, out.Feedback, nil
}

func short(epoch string) string {
	if i := strings.IndexByte(epoch, ':'); i >= 0 && len(epoch) > i+9 {
		return epoch[i+1 : i+9]
	}
	return epoch
}

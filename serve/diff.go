package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/diff"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/versioning"
)

// buildDiffResponse renders d as GET /diff/{a}/{b}'s wire.DiffResult,
// whose AddedLines / RemovedLines summarize the script (keeps excluded)
// so a client can size a change without walking Ops.
func buildDiffResponse(a, b versioning.NodeID, d diff.Delta) wire.DiffResult {
	out := wire.DiffResult{A: a, B: b, Ops: []wire.DiffOp{}}
	for _, c := range d.Cmds {
		switch c.Op {
		case diff.OpKeep:
			out.Ops = append(out.Ops, wire.DiffOp{Op: "keep", N: c.N})
		case diff.OpDelete:
			out.Ops = append(out.Ops, wire.DiffOp{Op: "delete", N: c.N})
			out.RemovedLines += c.N
		case diff.OpInsert:
			out.Ops = append(out.Ops, wire.DiffOp{Op: "insert", Lines: c.Lines})
			out.AddedLines += len(c.Lines)
		}
	}
	return out
}

// handleDiff serves the edit script between two versions. Both
// endpoint checkouts go through the store's content cache and flight,
// the script is versioning.DiffManifest's (a tree diff of two
// manifests, minimal within each file; Myers over the whole version
// otherwise) under a "diff.compute" span, and the encoded response
// caches under its own kind with a strong ETag — version content is
// immutable, so a (a, b) diff never changes.
func (s *Server) handleDiff(tn string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	a64, errA := strconv.ParseInt(r.PathValue("a"), 10, 32)
	b64, errB := strconv.ParseInt(r.PathValue("b"), 10, 32)
	if errA != nil || errB != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad version ids %q, %q", r.PathValue("a"), r.PathValue("b"))})
		return
	}
	a, b := versioning.NodeID(a64), versioning.NodeID(b64)
	key := strconv.FormatInt(a64, 10) + "\x00" + strconv.FormatInt(b64, 10)
	if e, ok := s.resp.get(respKindDiff, tn, key); ok {
		_, sp := trace.StartSpan(r.Context(), "cache.hit")
		sp.End()
		// Cache hits still count toward both endpoints' read heat.
		repo.TouchVersion(a)
		if b != a {
			repo.TouchVersion(b)
		}
		s.writeEncoded(w, r, e)
		return
	}
	aLines, err := repo.Checkout(r.Context(), a)
	if err == nil && a != b {
		var bLines []string
		bLines, err = repo.Checkout(r.Context(), b)
		if err == nil {
			_, dsp := trace.StartSpan(r.Context(), "diff.compute")
			d := versioning.DiffManifest(aLines, bLines)
			dsp.End()
			s.diffComputed.Add(1)
			s.finishDiff(tn, w, r, key, buildDiffResponse(a, b, d))
			return
		}
	}
	if err != nil {
		writeJSON(w, readErrStatus(r, err), errorResponse{Error: err.Error()})
		return
	}
	// a == b: the empty edit script, once a itself checked out (so an
	// unknown version is still a 404, not a vacuous success).
	s.finishDiff(tn, w, r, key, wire.DiffResult{A: a, B: b, Ops: []wire.DiffOp{}})
}

// finishDiff encodes, caches, and writes one diff response.
func (s *Server) finishDiff(tn string, w http.ResponseWriter, r *http.Request, key string, resp wire.DiffResult) {
	e, err := encodeResponse(r.Context(), resp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.resp.put(respKindDiff, tn, key, e)
	s.writeEncoded(w, r, e)
}

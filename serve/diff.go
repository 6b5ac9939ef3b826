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
	s.serveCached(w, r, respKey{kind: respKindDiff, tenant: tn, a: a64, b: b64}, func() (any, error) {
		aLines, err := repo.Checkout(r.Context(), a)
		if err != nil {
			return nil, err
		}
		if a == b {
			// The empty edit script, once a itself checked out (so an
			// unknown version is still a 404, not a vacuous success).
			return wire.DiffResult{A: a, B: b, Ops: []wire.DiffOp{}}, nil
		}
		bLines, err := repo.Checkout(r.Context(), b)
		if err != nil {
			return nil, err
		}
		_, dsp := trace.StartSpan(r.Context(), "diff.compute")
		d := versioning.DiffManifest(aLines, bLines)
		dsp.End()
		s.diffComputed.Add(1)
		return buildDiffResponse(a, b, d), nil
	})
}

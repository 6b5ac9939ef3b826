// Package repro reproduces "To Store or Not to Store: a graph theoretical
// approach for Dataset Versioning" (Guo, Li, Sukprasert, Khuller,
// Deshpande, Mukherjee — IPPS 2024, arXiv:2402.11741).
//
// The public API lives in repro/versioning, including the concurrent
// solver-portfolio Engine that races every applicable solver per
// problem, and the plan-executing Repository: a storage runtime that
// commits versions, re-plans through the Engine, and reconstructs any
// version from the stored blobs and edit scripts (served over HTTP by
// cmd/dsvd). Storage is layered — pluggable content-addressed backends
// (single-mutex memory, sharded memory, durable disk) under a
// chunk-deduplicating store under a lock-split Repository — and
// optionally durable: with a data directory, commits are journaled
// write-ahead and a restarted daemon replays the exact committed
// history.
//
// The serving stack around the Repository is production-shaped: the
// serve package adds admission control, an encoded-response cache with
// strong ETags and If-None-Match revalidation, one route table served
// at / or per tenant under /t/{tenant}, and /statsz + /metricsz +
// /tracez observability; concurrent identical checkouts are
// deduplicated once, in the store (internal/flight). repro/client is
// the typed HTTP client (pooling, retries, no cache of its own): one method
// set over per-repository views. Real git
// histories import end to end — internal/gitimport and cmd/dsvimport
// map commits (merges included) to versions with true parent edges
// and manifest-per-version content, which GET /diff/{a}/{b}, GET
// /log/{id} ancestry, and path-scoped checkouts (?path=) then serve.
// The planner itself is observable: every maintenance pass is recorded
// in a bounded ring with its full solver-race report, and GET /planz
// exposes it next to an explanation of the installed plan.
// The paper's evaluation
// is regenerated by cmd/dsvbench and by the benchmarks in bench_test.go.
// See README.md for an overview.
package repro

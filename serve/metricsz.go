package serve

import (
	"net/http"

	"repro/internal/buildinfo"
	"repro/internal/metrics"
	"repro/versioning"
)

// handleMetricsz renders the whole serving surface — process identity,
// admission control, per-endpoint counters and latency histograms,
// repository/WAL/maintenance stats (per open tenant in multi mode),
// and fleet gauges — in Prometheus text exposition format. It renders
// one StatszSnapshot, the snapshot /statsz serves, so the two endpoints
// differ only in encoding; it reads directly only what /statsz does not
// carry (build identity, slow-log and trace counters, per-tenant
// activity). The format is pinned by metrics.Lint (TestMetricszLint).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	z := s.StatszSnapshot()
	var e metrics.Expo

	bi := buildinfo.Get()
	e.Gauge("dsv_build_info", "Build identity of the running binary; the value is always 1.", 1,
		metrics.L("module", bi.Module),
		metrics.L("version", bi.Version),
		metrics.L("go_version", bi.GoVersion),
		metrics.L("revision", bi.Revision))
	e.Gauge("dsv_uptime_seconds", "Seconds since the serving layer started.", z.UptimeSeconds)
	e.Gauge("dsv_goroutines", "Live goroutines in the process.", float64(z.Goroutines))

	adm := z.Admission
	e.Gauge("dsv_admission_capacity", "Admission slots (4 x GOMAXPROCS).", float64(adm.Capacity))
	e.Gauge("dsv_admission_in_flight", "Requests currently holding an admission slot.", float64(adm.InFlight))
	e.Gauge("dsv_admission_queue_len", "Requests currently queued for a slot.", float64(adm.QueueLen))
	e.Gauge("dsv_admission_queue_cap", "Admission queue capacity.", float64(adm.QueueCap))
	e.Counter("dsv_admission_accepted_total", "Requests admitted.", float64(adm.Accepted))
	e.Counter("dsv_admission_queued_total", "Requests that waited in the admission queue.", float64(adm.Queued))
	const rejectedHelp = "Requests shed with 429, by reason."
	e.Counter("dsv_admission_rejected_total", rejectedHelp, float64(adm.RejectedQueueFull), metrics.L("reason", "queue_full"))
	e.Counter("dsv_admission_rejected_total", rejectedHelp, float64(adm.RejectedWait), metrics.L("reason", "wait_timeout"))
	e.Counter("dsv_admission_rejected_total", rejectedHelp, float64(adm.RejectedCanceled), metrics.L("reason", "canceled"))

	// Per-endpoint traffic, metric-major so each family stays contiguous
	// across endpoints.
	endpoints := metrics.SortedKeys(z.Endpoints)
	endpointFamily := func(emit func(string, string, float64, ...metrics.Label), name, help string, get func(EndpointStats) int64) {
		for _, ep := range endpoints {
			emit(name, help, float64(get(z.Endpoints[ep])), metrics.L("endpoint", ep))
		}
	}
	endpointFamily(e.Counter, "dsv_requests_total", "Requests handled, including rejected ones.", func(es EndpointStats) int64 { return es.Requests })
	endpointFamily(e.Counter, "dsv_request_errors_total", "Handler responses with status >= 400 (admission 429s excluded).", func(es EndpointStats) int64 { return es.Errors })
	endpointFamily(e.Counter, "dsv_requests_rejected_total", "Requests shed by admission control before reaching the handler.", func(es EndpointStats) int64 { return es.Rejected })
	endpointFamily(e.Gauge, "dsv_requests_in_flight", "Requests currently executing in the handler.", func(es EndpointStats) int64 { return es.InFlight })
	for _, ep := range endpoints {
		e.Histogram("dsv_request_duration_seconds", "Handler latency (admission wait included).", z.Endpoints[ep].Histogram, metrics.L("endpoint", ep))
	}
	e.Counter("dsv_checkout_path_scoped_total", "Checkout requests narrowed to a path scope (?path=).", float64(z.Endpoints["checkout"].PathScoped))
	e.Counter("dsv_diff_computed_total", "Diff responses computed rather than served from the encoded-response cache.", float64(z.Endpoints["diff"].Computed))

	if cs := z.RespCache; cs != nil {
		e.Gauge("dsv_respcache_entries", "Encoded checkout responses currently cached.", float64(cs.Entries))
		e.Gauge("dsv_respcache_bytes", "Byte footprint of the encoded-response cache.", float64(cs.Bytes))
		e.Gauge("dsv_respcache_max_bytes", "Byte budget of the encoded-response cache.", float64(cs.MaxBytes))
		e.Counter("dsv_respcache_hits_total", "Checkouts answered from the encoded-response cache.", float64(cs.Hits))
		e.Counter("dsv_respcache_misses_total", "Checkouts that had to reconstruct and encode.", float64(cs.Misses))
		e.Counter("dsv_respcache_rejected_total", "Cache fills larger than the whole byte budget.", float64(cs.Rejected))
		e.Counter("dsv_respcache_evictions_total", "Cached responses evicted by the byte budget.", float64(cs.Evictions))
	}
	e.Counter("dsv_checkout_not_modified_total", "304s answered off a client If-None-Match validator by a cached GET (/checkout, /diff, /log), with or without the response cache.", float64(z.NotModified))

	e.Counter("dsv_slow_requests_logged_total", "Slow-request log lines emitted.", float64(s.slowLogged.Load()))
	e.Counter("dsv_slow_requests_suppressed_total", "Slow requests over the threshold whose log line was rate-limited away.", float64(s.slowSuppressed.Load()))
	if s.tracer != nil {
		e.Counter("dsv_traces_recorded_total", "Completed traces handed to the flight recorder.", float64(s.tracer.Recorder().Recorded()))
	}

	// Repository stats: one unlabeled series set in single-repo mode,
	// one {tenant="..."} series per open tenant in multi mode. Emitted
	// metric-major so families stay contiguous.
	type repoRow struct {
		labels []metrics.Label
		st     versioning.RepositoryStats
	}
	var repos []repoRow
	if s.mgr != nil {
		for _, name := range metrics.SortedKeys(z.Tenants) {
			repos = append(repos, repoRow{labels: []metrics.Label{metrics.L("tenant", name)}, st: z.Tenants[name]})
		}
	} else {
		repos = append(repos, repoRow{st: z.Repo})
	}
	repoGauge := func(name, help string, get func(versioning.RepositoryStats) float64) {
		for _, row := range repos {
			e.Gauge(name, help, get(row.st), row.labels...)
		}
	}
	repoCounter := func(name, help string, get func(versioning.RepositoryStats) float64) {
		for _, row := range repos {
			e.Counter(name, help, get(row.st), row.labels...)
		}
	}
	repoGauge("dsv_repo_versions", "Versions in the repository.", func(st versioning.RepositoryStats) float64 { return float64(st.Versions) })
	repoGauge("dsv_repo_deltas", "Candidate delta edges in the version graph.", func(st versioning.RepositoryStats) float64 { return float64(st.Deltas) })
	repoGauge("dsv_repo_objects", "Content-addressed objects in the backend.", func(st versioning.RepositoryStats) float64 { return float64(st.Objects) })
	repoGauge("dsv_repo_stored_bytes", "Bytes stored in the backend.", func(st versioning.RepositoryStats) float64 { return float64(st.StoredBytes) })
	repoGauge("dsv_repo_blobs", "Materialized blob objects under the installed plan.", func(st versioning.RepositoryStats) float64 { return float64(st.Blobs) })
	repoGauge("dsv_repo_stored_deltas", "Delta objects under the installed plan.", func(st versioning.RepositoryStats) float64 { return float64(st.StoredDeltas) })
	repoGauge("dsv_repo_cached_versions", "Versions in the checkout LRU cache.", func(st versioning.RepositoryStats) float64 { return float64(st.CachedVersions) })
	repoGauge("dsv_repo_cached_bytes", "Byte footprint of the checkout LRU cache.", func(st versioning.RepositoryStats) float64 { return float64(st.CachedBytes) })
	repoGauge("dsv_repo_commits_pending", "Commits since the last installed plan.", func(st versioning.RepositoryStats) float64 { return float64(st.CommitsPending) })
	repoGauge("dsv_repo_storage_cost", "Installed plan storage cost.", func(st versioning.RepositoryStats) float64 { return float64(st.Storage) })
	repoGauge("dsv_repo_sum_retrieval_cost", "Installed plan total retrieval cost.", func(st versioning.RepositoryStats) float64 { return float64(st.SumRetrieval) })
	repoGauge("dsv_repo_max_retrieval_cost", "Installed plan worst-version retrieval cost.", func(st versioning.RepositoryStats) float64 { return float64(st.MaxRetrieval) })
	repoCounter("dsv_repo_checkouts_total", "Store checkouts (cache hits included).", func(st versioning.RepositoryStats) float64 { return float64(st.Checkouts) })
	repoCounter("dsv_repo_cache_hits_total", "Checkouts served from the LRU cache.", func(st versioning.RepositoryStats) float64 { return float64(st.CacheHits) })
	repoCounter("dsv_checkout_coalesced_total", "Store checkouts answered by a concurrent identical checkout's reconstruction.", func(st versioning.RepositoryStats) float64 { return float64(st.Coalesced) })
	repoCounter("dsv_repo_cache_rejected_total", "Content-cache fills of a version larger than the byte budget.", func(st versioning.RepositoryStats) float64 { return float64(st.CacheRejected) })
	repoCounter("dsv_repo_cache_evicted_total", "Content-cache entries evicted by the byte budget.", func(st versioning.RepositoryStats) float64 { return float64(st.CacheEvicted) })
	repoGauge("dsv_repo_packs", "Live packfiles in the disk backend.", func(st versioning.RepositoryStats) float64 { return float64(st.Packs) })
	repoGauge("dsv_repo_packed_objects", "Objects served from packfiles.", func(st versioning.RepositoryStats) float64 { return float64(st.PackedObjects) })
	repoCounter("dsv_repo_pack_reads_total", "Object reads resolved via an mmap'd pack slice.", func(st versioning.RepositoryStats) float64 { return float64(st.PackReads) })
	repoCounter("dsv_repo_loose_reads_total", "Reads of the staged tier: objects not yet in a pack.", func(st versioning.RepositoryStats) float64 { return float64(st.LooseReads) })
	repoCounter("dsv_repo_compactions_total", "Packfile compaction passes completed.", func(st versioning.RepositoryStats) float64 { return float64(st.Compactions) })
	repoCounter("dsv_repo_delta_applies_total", "Edit scripts applied during reconstructions.", func(st versioning.RepositoryStats) float64 { return float64(st.DeltaApplies) })
	repoCounter("dsv_repo_plan_retries_total", "Checkouts re-snapshotted after racing a migration.", func(st versioning.RepositoryStats) float64 { return float64(st.PlanRetries) })
	repoCounter("dsv_repo_replans_total", "Plans installed.", func(st versioning.RepositoryStats) float64 { return float64(st.Replans) })
	repoCounter("dsv_repo_async_replans_total", "Background maintenance passes run.", func(st versioning.RepositoryStats) float64 { return float64(st.AsyncReplans) })
	repoCounter("dsv_repo_replan_failures_total", "Failed re-plan passes.", func(st versioning.RepositoryStats) float64 { return float64(st.ReplanFailures) })
	repoCounter("dsv_repo_migrations_total", "Store migrations completed.", func(st versioning.RepositoryStats) float64 { return float64(st.Migrations) })
	repoCounter("dsv_repo_migration_seconds_total", "Wall time spent inside store migrations.", func(st versioning.RepositoryStats) float64 { return float64(st.MigrationMicros) / 1e6 })
	repoCounter("dsv_migration_objects_total", "Objects newly written to the backend by store migrations.", func(st versioning.RepositoryStats) float64 { return float64(st.MigrationObjects) })
	repoCounter("dsv_migration_bytes_total", "Bytes newly written to the backend by store migrations.", func(st versioning.RepositoryStats) float64 { return float64(st.MigrationBytes) })
	repoGauge("dsv_repo_last_replan_failure_timestamp_seconds", "Unix time of the most recent failed re-plan pass (0 = never).", func(st versioning.RepositoryStats) float64 { return st.LastReplanFailureUnix })

	// Plan observatory: pass records, the latest prediction and
	// per-solver race outcomes. Families are emitted
	// metric-major like everything above; the labeled loops below keep
	// each family contiguous across repositories and label values.
	repoCounter("dsv_plan_records_total", "Maintenance-pass records appended to the plan observatory.", func(st versioning.RepositoryStats) float64 { return float64(st.PlanRecords) })
	repoGauge("dsv_plan_history_len", "Pass records currently retained by the bounded history ring.", func(st versioning.RepositoryStats) float64 { return float64(st.PlanHistoryLen) })
	repoGauge("dsv_plan_predicted_storage_cost", "Storage cost the latest installed plan predicted at install time.", func(st versioning.RepositoryStats) float64 { return float64(st.PredictedStorage) })
	repoGauge("dsv_plan_predicted_sum_retrieval_cost", "Total retrieval cost the latest installed plan predicted at install time.", func(st versioning.RepositoryStats) float64 { return float64(st.PredictedSumRetrieval) })
	repoGauge("dsv_plan_predicted_max_retrieval_cost", "Worst-version retrieval cost the latest installed plan predicted at install time.", func(st versioning.RepositoryStats) float64 { return float64(st.PredictedMaxRetrieval) })
	for _, row := range repos {
		for _, solver := range metrics.SortedKeys(row.st.SolverWins) {
			e.Counter("dsv_plan_solver_wins_total", "Installed plans per winning solver.", float64(row.st.SolverWins[solver]),
				append(append([]metrics.Label(nil), row.labels...), metrics.L("solver", solver))...)
		}
	}
	for _, row := range repos {
		e.Histogram("dsv_plan_race_duration_seconds", "Wall time of the portfolio solver race per maintenance pass.", row.st.RaceDurations, row.labels...)
	}
	repoCounter("dsv_wal_batches_total", "Journal durability points: fsyncs with -fsync, record writes without it.", func(st versioning.RepositoryStats) float64 { return float64(st.WALBatches) })
	repoCounter("dsv_wal_batched_commits_total", "Commits covered by a journal durability point.", func(st versioning.RepositoryStats) float64 { return float64(st.WALBatchedCommits) })
	repoGauge("dsv_wal_max_batch", "Most commits one journal durability point covered.", func(st versioning.RepositoryStats) float64 { return float64(st.WALMaxBatch) })

	if fs := z.Fleet; fs != nil {
		e.Gauge("dsv_fleet_tenants", "Namespaces touched since boot.", float64(fs.Tenants))
		e.Gauge("dsv_fleet_open", "Currently open tenant repositories.", float64(fs.Open))
		e.Gauge("dsv_fleet_max_open", "Open-repository LRU bound.", float64(fs.MaxOpen))
		e.Counter("dsv_fleet_opens_total", "Tenant repository opens.", float64(fs.Opens))
		e.Counter("dsv_fleet_reopens_total", "Opens of previously evicted tenants.", float64(fs.Reopens))
		e.Counter("dsv_fleet_evictions_total", "Tenant repositories closed by the LRU.", float64(fs.Evictions))
		e.Counter("dsv_fleet_quota_denials_total", "Commits denied by per-tenant quotas.", float64(fs.QuotaDenials))
		e.Counter("dsv_fleet_close_errors_total", "Tenant flushes that failed during eviction or shutdown.", float64(fs.CloseErrors))
		// Per-tenant activity gauges, bounded to open tenants so the
		// series cardinality tracks MaxOpen, not every namespace ever
		// touched.
		infos := s.mgr.Infos()
		for _, info := range infos {
			if !info.Open {
				continue
			}
			e.Counter("dsv_tenant_commits_total", "Quota-admitted commit attempts (open tenants only).", float64(info.Commits), metrics.L("tenant", info.Name))
		}
		for _, info := range infos {
			if !info.Open {
				continue
			}
			e.Gauge("dsv_tenant_commit_rate", "EWMA commits/s (open tenants only).", info.CommitRate, metrics.L("tenant", info.Name))
		}
		for _, info := range infos {
			if !info.Open {
				continue
			}
			e.Counter("dsv_tenant_quota_denials_total", "Commits denied by quota (open tenants only).", float64(info.QuotaDenials), metrics.L("tenant", info.Name))
		}
	}

	w.Header().Set("Content-Type", metrics.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.Bytes())
}

package obs

// Canonical metric names. The scheme is graphsig_<subsystem>_<what>_<unit>:
// counters end in _total, gauges name a level, histograms name a unit
// (_seconds). Labels are closed sets — stage names, runctl reasons,
// normalized HTTP routes, job states — never request data, so series
// cardinality is bounded by construction.
const (
	// Per-stage mining pipeline metrics (label: stage; recorded by
	// runctl stage spans). Every span ends exactly once, as completed or
	// degraded, so for each stage
	//
	//	started_total == completed_total + degraded_total
	//
	// holds at every quiescent point — the balance the fault-injection
	// suite locks down.
	MStageStarted   = "graphsig_stage_started_total"
	MStageCompleted = "graphsig_stage_completed_total"
	MStageDegraded  = "graphsig_stage_degraded_total"
	// MStageUnits counts completed work units in the stage's own scale
	// (vectors, groups, patterns, graphs).
	MStageUnits = "graphsig_stage_units_total"
	// MStageDuration is the per-stage wall-time histogram, in seconds.
	MStageDuration = "graphsig_stage_duration_seconds"

	// MDegradations counts cut-short runs by reason (label: reason).
	// Incremented exactly once per run, by the checkpoint that wins the
	// first-cause CAS in runctl.
	MDegradations = "graphsig_degradations_total"
	// MPanics counts isolated worker panics by stage (label: stage).
	MPanics = "graphsig_panics_total"

	// Shared window cache (internal/core): one CutGraph per distinct
	// (graphID, nodeID, radius), however many vector groups reference it.
	MWindowCacheHits   = "graphsig_window_cache_hits_total"
	MWindowCacheMisses = "graphsig_window_cache_misses_total"

	// VF2 fast-reject pre-filter (internal/isomorph; label: site —
	// "verify" for graph-space support counting, "gindex" for
	// feature-index builds). A reject is a candidate dismissed on
	// label/degree summaries alone, without entering VF2 search; a pass
	// fell through to VF2. The site="maximal" series has no producer
	// since the miners decide maximality from their own extension keys;
	// perfbench still reads it, so it reads 0.
	MPrefilterRejects = "graphsig_vf2_prefilter_rejects_total"
	MPrefilterPasses  = "graphsig_vf2_prefilter_passes_total"

	// Closed-pattern mining (internal/gspan, internal/fsg; label: miner
	// — "gspan" or "fsg").
	// MClosedPrunes counts frequent patterns suppressed at emission
	// because a one-edge extension preserves their full support set
	// (the CloseGraph non-closed condition).
	MClosedPrunes = "graphsig_closed_prunes_total"
	// MEquivOccurrences counts equivalent-occurrence early terminations:
	// DFS subtrees abandoned wholesale because every embedding of the
	// subtree root extends by the same support-preserving internal edge,
	// so no descendant can be closed.
	MEquivOccurrences = "graphsig_equiv_occurrence_hits_total"
	// MMaximalPairs has no producer: it counted the pairs of the
	// pairwise maximality sweep, and the miners now decide maximality
	// from their own extension keys. It is kept, always 0, only because
	// perfbench reads it.
	MMaximalPairs = "graphsig_maximal_sweep_pairs_total"
	// MFSGMinChecks counts FSG Phase-2 minimality checks (label: miner):
	// one per frequent extension key that is a rightmost-path extension
	// of its parent's minimum code. Every other key is left to the
	// candidate's canonical parent without building anything.
	MFSGMinChecks = "graphsig_fsg_min_checks_total"
	// MRWRIterations counts RWR power iterations, one per source per
	// iteration: a source stops once its discretized vector is certain
	// or its L1 change drops below the tolerance. A graph of at most 64
	// nodes is solved once for all its sources, and only the sources
	// whose solved vectors the residual certificate refuses are iterated,
	// so the count comes from those and from larger graphs alone.
	MRWRIterations = "graphsig_rwr_iterations_total"
	// MFVMineTails counts the binomial tails FVMine evaluated: the
	// p-values of reported states and the significance comparisons no
	// bound decided. core adds each label group's count once, when the
	// group's search returns.
	MFVMineTails = "graphsig_fvmine_tails_total"

	// Jobs subsystem (internal/jobs).
	MJobsWorkers     = "graphsig_jobs_workers"
	MJobsBusy        = "graphsig_jobs_busy_workers"
	MJobsQueueDepth  = "graphsig_jobs_queue_depth"
	MJobsQueueCap    = "graphsig_jobs_queue_capacity"
	MJobsExecutions  = "graphsig_jobs_executions_total"
	MJobsCoalesced   = "graphsig_jobs_coalesced_total"
	MJobsCacheHits   = "graphsig_jobs_cache_hits_total"
	MJobsCacheMisses = "graphsig_jobs_cache_misses_total"
	MJobsRejected    = "graphsig_jobs_rejected_total"
	MJobsCacheSize   = "graphsig_jobs_cache_entries"
	// MJobsFinished counts terminal jobs by outcome (label: state).
	MJobsFinished = "graphsig_jobs_finished_total"
	// MJobsRunSeconds is the executed-job wall-time histogram.
	MJobsRunSeconds = "graphsig_jobs_run_seconds"
	// MJobsShed counts submissions refused by deadline-aware admission
	// control: the expected queue wait already exceeded the client's
	// completion deadline, so running the job could only waste a worker.
	MJobsShed = "graphsig_jobs_shed_total"
	// MJobsRetries counts re-enqueues of transiently failed jobs.
	MJobsRetries = "graphsig_jobs_retries_total"
	// MJobsReplayed counts jobs reconstructed from the write-ahead
	// journal at startup (label: outcome — "requeued" for incomplete
	// jobs re-entering the queue, "finished" for terminal jobs surfaced
	// with their persisted results, "dropped" for records that could not
	// be restored).
	MJobsReplayed = "graphsig_jobs_replayed_total"
	// MJobsStalled counts jobs the stall watchdog canceled because their
	// runctl checkpoints stopped advancing for the configured window.
	MJobsStalled = "graphsig_jobs_stalled_total"

	// Durability layer (internal/journal, runctl checkpoint sink,
	// core resume).
	// MJournalRecords counts appended journal records by type.
	MJournalRecords = "graphsig_journal_records_total"
	// MJournalTruncations counts corrupt-tail repairs on journal open:
	// each is one torn or CRC-failing suffix cut back to the last intact
	// record boundary.
	MJournalTruncations = "graphsig_journal_tail_truncations_total"
	// MJournalErrors counts journal append/sync failures; the serving
	// layer degrades to in-memory operation instead of failing the job.
	MJournalErrors = "graphsig_journal_errors_total"
	// MCheckpointsEmitted counts resumable snapshots handed to a
	// runctl checkpoint sink.
	MCheckpointsEmitted = "graphsig_checkpoints_emitted_total"
	// MResumeRejected counts resume states Mine refused (key or group
	// identity mismatch); the run falls back to mining from scratch.
	MResumeRejected = "graphsig_resume_rejected_total"

	// HTTP surface (internal/server; labels: route, code).
	MHTTPRequests = "graphsig_http_requests_total"
	MHTTPDuration = "graphsig_http_request_duration_seconds"
	MHTTPInFlight = "graphsig_http_in_flight"

	// Served database shape (internal/server).
	MDBGraphs = "graphsig_db_graphs"

	// Persistent segment store (internal/store).
	// MStoreSegmentLoads counts successful segment loads, each one
	// file read from disk;
	// MStoreSegmentCacheHits/Misses track the Reader's raw-segment LRU,
	// so hits+misses is total segment lookups and loads ≤ misses
	// (concurrent loaders of the same segment share one load).
	MStoreSegmentLoads       = "graphsig_store_segment_loads_total"
	MStoreSegmentCacheHits   = "graphsig_store_segment_cache_hits_total"
	MStoreSegmentCacheMisses = "graphsig_store_segment_cache_misses_total"
	// MStoreGraphDecodes counts single-graph frame decodes: one per
	// graph read, plus one per frame when a segment is checked in full.
	// A reader whose store fits its LRU decodes only in full checks.
	MStoreGraphDecodes = "graphsig_store_graph_decodes_total"
	// MStoreGeneration is the manifest generation the reader serves;
	// it moves only when an append is picked up.
	MStoreGeneration = "graphsig_store_generation"
	MStoreSegments   = "graphsig_store_segments"

	// Scatter-gather sharded mining (internal/shard; label: shard).
	// MShardGraphs gauges each shard's member count.
	MShardGraphs = "graphsig_shard_graphs"
	// Never recorded (the coordinator caches no vectors); kept because perfbench reads them.
	MShardVectorCacheHits   = "graphsig_shard_vector_cache_hits_total"
	MShardVectorCacheMisses = "graphsig_shard_vector_cache_misses_total"
	// MShardMines counts scatter-gather coordinator runs.
	MShardMines = "graphsig_shard_mines_total"
)

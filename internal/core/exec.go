package core

// Execution-layer observability. MiningStats is part of the deterministic
// result contract — bit-identical at every Workers value — so counters that
// describe *how* a run executed rather than *what* it computed (how the work
// was split into tasks, which postings kernels served the intersections)
// live elsewhere. ExecStats is that elsewhere: a side channel surfaced
// through Progress (PhaseExec) and the EXPLAIN plan, never through the
// ResultSet.

// ExecStats counts execution-layer activity during one run: first-level
// fan-out tasks and postings-kernel dispatch. The counts are observational
// and must never feed result data or MiningStats.
type ExecStats struct {
	// TasksSpawned counts the first-level fan-out tasks of the recursive
	// miners: one per frequent singleton (UH-Mine, NDUH-Mine) or non-empty
	// top-level header item (UFP-growth). A pure function of the input.
	TasksSpawned int64 `json:"tasks_spawned,omitempty"`
	// TasksStolen is always 0: no scheduler moves tasks between workers.
	// It stays because the repository's benchmark module compiles against
	// it and reports a steal fraction from it.
	TasksStolen int64 `json:"tasks_stolen,omitempty"`
	// KernelIntersects counts vertical-plan intersections served by the
	// internal/kernel implementations.
	KernelIntersects int64 `json:"kernel_intersects,omitempty"`
	// ScalarIntersects is always 0: the vertical plan always runs the
	// internal/kernel implementations, and the scalar references are
	// test-only. It stays because the repository's benchmark module
	// compiles against it and checks its replayed intersection count
	// against KernelIntersects+ScalarIntersects.
	ScalarIntersects int64 `json:"scalar_intersects,omitempty"`
}

// Add accumulates other into s. All fields are sums.
func (s *ExecStats) Add(other ExecStats) {
	s.TasksSpawned += other.TasksSpawned
	s.TasksStolen += other.TasksStolen
	s.KernelIntersects += other.KernelIntersects
	s.ScalarIntersects += other.ScalarIntersects
}

// Zero reports whether no execution-layer activity was recorded.
func (s ExecStats) Zero() bool {
	return s == ExecStats{}
}

// EmitExec invokes the hook with a PhaseExec event when non-nil and the
// stats are non-zero — the one-liner miners call after a run to report
// execution-layer counters.
func (f ProgressFunc) EmitExec(algorithm string, ex ExecStats) {
	if f != nil && !ex.Zero() {
		f(ProgressEvent{Algorithm: algorithm, Phase: PhaseExec, Exec: ex})
	}
}

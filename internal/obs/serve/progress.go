package serve

import "mrbc/internal/obs"

// HostProgress is one host's live position within the current run.
type HostProgress struct {
	Host int `json:"host"`
	// LastRound is the most recent BSP round whose compute phase this
	// host finished (dgalois_host_last_round).
	LastRound int64 `json:"last_round"`
	// Bytes and Messages are the host's cumulative sent volume.
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
	// Alive is false once the cluster has declared the host dead
	// (dgalois_host_alive). A dead host is frozen at its last round
	// forever, so it is excluded from the straggler-lag spread — lag
	// measures slow hosts, not dead ones.
	Alive bool `json:"alive"`
}

// Progress is the derived live-progress view /progressz serves: where
// the run is (engine phase counters) and how the hosts are spread
// across it (per-host rounds and volume, straggler lag).
type Progress struct {
	// Engine identifies which engine's gauges were found: "mrbc",
	// "sbbc", or "" when only the cluster substrate reported.
	Engine string `json:"engine"`
	// Round is the cluster's current BSP round (dgalois_round).
	Round int64 `json:"round"`
	// Batch is the engine's current batch (mrbc) or source index
	// (sbbc); -1 when the engine doesn't batch.
	Batch int64 `json:"batch"`
	// EngineRound is the engine's phase-local round: mrbc_round or
	// sbbc_level.
	EngineRound int64 `json:"engine_round"`
	// Frontier is the engine's current activity measure: due pairs
	// (mrbc) or relaxed vertices (sbbc).
	Frontier int64 `json:"frontier"`
	// Backward is true while an mrbc batch runs its backward phase.
	Backward bool `json:"backward"`
	// Hosts lists per-host positions, ascending host order.
	Hosts []HostProgress `json:"hosts,omitempty"`
	// Epoch is the cluster membership epoch (dgalois_epoch): 0 for a
	// first life, bumped by the elastic coordinator on every recovery.
	Epoch int64 `json:"epoch"`
	// DeadHosts counts hosts the cluster has declared dead this epoch.
	DeadHosts int `json:"dead_hosts,omitempty"`
	// StragglerLag is the spread of the per-host last-completed-round
	// vector (max − min) across LIVE hosts: 0 when every live host is at
	// the same round, ≥1 while at least one lags the front-runner. Dead
	// hosts are excluded — a killed host would otherwise report as an
	// ever-growing lag for the rest of the run.
	StragglerLag int64 `json:"straggler_lag"`
}

// ProgressFrom derives the live-progress view from a registry
// snapshot. It is a pure function of the snapshot, so tests can feed
// synthetic snapshots and the handler stays trivial.
func ProgressFrom(s obs.Snapshot) Progress {
	p := Progress{Batch: -1}
	p.Round = s.Gauges["dgalois_round"]
	switch {
	case hasGauge(s, "mrbc_round"):
		p.Engine = "mrbc"
		p.Batch = s.Gauges["mrbc_batch"]
		p.EngineRound = s.Gauges["mrbc_round"]
		p.Frontier = s.Gauges["mrbc_frontier"]
		p.Backward = s.Gauges["mrbc_backward"] != 0
	case hasGauge(s, "sbbc_level"):
		p.Engine = "sbbc"
		p.Batch = s.Gauges["sbbc_source"]
		p.EngineRound = s.Gauges["sbbc_level"]
		p.Frontier = s.Gauges["sbbc_frontier"]
	}
	p.Epoch = s.Gauges["dgalois_epoch"]
	rounds := s.GaugeVecs["dgalois_host_last_round"]
	bytes := s.CounterVecs["dgalois_host_bytes_total"]
	msgs := s.CounterVecs["dgalois_host_messages_total"]
	alive := s.GaugeVecs["dgalois_host_alive"]
	isAlive := func(h int) bool {
		// Runs predating the liveness gauge report no vector at all:
		// treat every host as alive rather than as dead.
		return h >= len(alive.Values) || alive.Values[h] != 0
	}
	var first = true
	var lo, hi int64
	for h := 0; h < len(rounds.Values); h++ {
		hp := HostProgress{Host: h, LastRound: rounds.Values[h], Alive: isAlive(h)}
		if h < len(bytes.Values) {
			hp.Bytes = bytes.Values[h]
		}
		if h < len(msgs.Values) {
			hp.Messages = msgs.Values[h]
		}
		p.Hosts = append(p.Hosts, hp)
		if !hp.Alive {
			p.DeadHosts++
			continue
		}
		if first {
			lo, hi, first = hp.LastRound, hp.LastRound, false
		} else {
			lo, hi = min(lo, hp.LastRound), max(hi, hp.LastRound)
		}
	}
	p.StragglerLag = hi - lo
	return p
}

func hasGauge(s obs.Snapshot, name string) bool {
	_, ok := s.Gauges[name]
	return ok
}

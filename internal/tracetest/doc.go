// Package tracetest verifies the paper's round structure against
// recorded execution traces rather than aggregate counters: Lemma 8's
// per-batch round bound and the backward-reversal symmetry of
// Algorithm 5 are checked send-by-send on obs.LevelDetail traces of
// every engine, and golden canonical traces pin determinism across
// worker-pool sizes. That faults on the TCP transport leave the
// paper-model event stream byte-identical is internal/chaostest's.
package tracetest

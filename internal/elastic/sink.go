package elastic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNoCheckpoint reports a sink (or boundary) with no snapshot.
var ErrNoCheckpoint = errors.New("elastic: no checkpoint")

// Sink persists boundary snapshots. Put is called by the engine at
// every source-batch boundary with the Encode'd snapshot whose
// NextBatch equals batch; Get and Latest feed restores. A Put failure
// aborts the run with a structured fault — checkpoints that silently
// fail would turn a later restore into data loss.
type Sink interface {
	Put(batch int, data []byte) error
	// Get returns the snapshot taken at exactly the given boundary,
	// ErrNoCheckpoint if that boundary was never persisted.
	Get(batch int) ([]byte, error)
	// Latest returns the highest-boundary snapshot, ErrNoCheckpoint
	// when the sink is empty.
	Latest() (batch int, data []byte, err error)
}

// MemSink is the in-memory sink the engine's checkpoint and resume
// tests use. Safe for concurrent use.
type MemSink struct {
	mu    sync.Mutex
	snaps map[int][]byte
	max   int
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink {
	return &MemSink{snaps: make(map[int][]byte)}
}

// Put stores a copy of data under the boundary.
func (m *MemSink) Put(batch int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snaps[batch] = append([]byte(nil), data...)
	if batch > m.max {
		m.max = batch
	}
	return nil
}

// Get returns the snapshot at the boundary.
func (m *MemSink) Get(batch int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.snaps[batch]
	if !ok {
		return nil, fmt.Errorf("%w at batch boundary %d", ErrNoCheckpoint, batch)
	}
	return append([]byte(nil), data...), nil
}

// Latest returns the highest-boundary snapshot.
func (m *MemSink) Latest() (int, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.max == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	return m.max, append([]byte(nil), m.snaps[m.max]...), nil
}

// Boundaries returns the persisted boundaries in ascending order.
func (m *MemSink) Boundaries() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.snaps))
	for b := range m.snaps {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// FileSink persists one host's snapshots under <dir>/host<h>/, one
// file per boundary, written atomically (temp file + rename) so a
// crash mid-write never leaves a torn snapshot where a restore would
// find it — the decoder's checksum is the second line of defense.
type FileSink struct {
	dir string
}

// snapshot file names: ckpt-<boundary>.ck, boundary zero-padded so
// lexical order is numeric order.
const snapSuffix = ".ck"

func snapName(batch int) string { return fmt.Sprintf("ckpt-%08d%s", batch, snapSuffix) }

// NewFileSink opens (creating if needed) host h's snapshot directory
// under dir.
func NewFileSink(dir string, host int) (*FileSink, error) {
	hd := filepath.Join(dir, fmt.Sprintf("host%d", host))
	if err := os.MkdirAll(hd, 0o755); err != nil {
		return nil, fmt.Errorf("elastic: checkpoint dir: %w", err)
	}
	return &FileSink{dir: hd}, nil
}

// Dir returns the host's snapshot directory.
func (f *FileSink) Dir() string { return f.dir }

// Put writes the boundary's snapshot atomically.
func (f *FileSink) Put(batch int, data []byte) error {
	tmp, err := os.CreateTemp(f.dir, "ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("elastic: checkpoint write: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("elastic: checkpoint write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("elastic: checkpoint write: %w", err)
	}
	if err := os.Rename(name, filepath.Join(f.dir, snapName(batch))); err != nil {
		os.Remove(name)
		return fmt.Errorf("elastic: checkpoint write: %w", err)
	}
	return nil
}

// Get reads the boundary's snapshot.
func (f *FileSink) Get(batch int) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(f.dir, snapName(batch)))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w at batch boundary %d in %s", ErrNoCheckpoint, batch, f.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("elastic: checkpoint read: %w", err)
	}
	return data, nil
}

// Latest returns the highest-boundary snapshot in the directory.
func (f *FileSink) Latest() (int, []byte, error) {
	b := latestBoundary(f.dir)
	if b == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	data, err := f.Get(b)
	return b, data, err
}

// latestBoundary scans one host directory for its highest persisted
// boundary, 0 when none (or the directory is missing).
func latestBoundary(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	best := 0
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), snapSuffix))
		if err == nil && n > best {
			best = n
		}
	}
	return best
}

// LatestCommonBoundary returns the highest batch boundary for which
// every host of the cluster has a persisted snapshot under dir — the
// boundary a coordinator rolls the whole cluster back to after a host
// loss. Boundaries are persisted contiguously from 1, so the minimum
// over hosts of each host's highest boundary is common to all. Returns
// 0 (resume from scratch) when any host has no snapshot yet.
func LatestCommonBoundary(dir string, hosts int) int {
	common := -1
	for h := 0; h < hosts; h++ {
		b := latestBoundary(filepath.Join(dir, fmt.Sprintf("host%d", h)))
		if common < 0 || b < common {
			common = b
		}
	}
	if common < 0 {
		return 0
	}
	return common
}

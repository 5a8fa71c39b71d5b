package node

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// StableStorage persists the small per-node crash-recovery record: the
// periodic clock mark the paper uses to estimate a process's own crash
// probability (Section 4.1) — the process writes the current time every
// period and, after a crash, compares the last mark with the clock to
// count the missed intervals (Event 4) — plus the broadcast sequence
// floor.
//
// The floor is the highest sequence number this incarnation may have
// issued; a restarted node resumes its sequencer above it, because
// re-issuing pre-crash sequence numbers would make every live peer's
// dedup watermark silently suppress the recovered node's broadcasts
// forever. The floor is maintained as a lease (see Node.ensureSeqLease):
// it is bumped in batches ahead of the issued sequence, so the sequencer
// can crash at any instant and still resume safely without a durable
// write per broadcast.
type StableStorage interface {
	// SaveMark records the latest alive-timestamp and the broadcast
	// sequence floor (0 when the node never broadcast). The record must
	// be durable when SaveMark returns nil: the node lets a leased
	// sequence number escape only after that.
	SaveMark(t time.Time, seqFloor uint64) error
	// LoadMark returns the last recorded timestamp and sequence floor;
	// ok is false when nothing was ever recorded. Records written by
	// older versions load with a zero floor.
	LoadMark() (t time.Time, seqFloor uint64, ok bool, err error)
}

// MemStorage is an in-memory StableStorage for tests and simulations of
// the live stack. It survives node restarts within one process.
type MemStorage struct {
	mu   sync.Mutex
	mark time.Time
	seq  uint64
	set  bool
}

var _ StableStorage = (*MemStorage)(nil)

// SaveMark implements StableStorage.
func (m *MemStorage) SaveMark(t time.Time, seqFloor uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mark, m.seq, m.set = t, seqFloor, true
	return nil
}

// LoadMark implements StableStorage.
func (m *MemStorage) LoadMark() (time.Time, uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mark, m.seq, m.set, nil
}

// FileStorage persists the mark in a small text file — the minimal stable
// storage the paper's crash/recovery model requires.
type FileStorage struct {
	path string
}

var _ StableStorage = (*FileStorage)(nil)

// NewFileStorage returns storage backed by the given path.
func NewFileStorage(path string) *FileStorage { return &FileStorage{path: path} }

// SaveMark implements StableStorage: a durable, atomic write of one
// line — the timestamp in nanoseconds, then the sequence floor. The
// line goes to a temporary file that is synced before it is renamed
// over the mark, and the directory is synced after, so a crash leaves
// either the old mark or the new one; on any failure the temporary file
// is removed. Readers split on whitespace and ignore fields past the
// floor, so the format stays forward compatible.
func (f *FileStorage) SaveMark(t time.Time, seqFloor uint64) (err error) {
	tmp := f.path + ".tmp"
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	line := strconv.FormatInt(t.UnixNano(), 10) + " " + strconv.FormatUint(seqFloor, 10) + "\n"
	if err := writeSynced(tmp, []byte(line)); err != nil {
		return fmt.Errorf("node: storage write: %w", err)
	}
	if err := os.Rename(tmp, f.path); err != nil {
		return fmt.Errorf("node: storage rename: %w", err)
	}
	if err := syncDir(filepath.Dir(f.path)); err != nil {
		return fmt.Errorf("node: storage sync: %w", err)
	}
	return nil
}

// writeSynced writes data to a new or truncated file at path and syncs
// it to stable storage before closing it.
func writeSynced(path string, data []byte) error {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = fh.Write(data)
	if err == nil {
		err = fh.Sync()
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir syncs directory dir, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadMark implements StableStorage. The timestamp and the floor are
// parsed strictly; files written before the sequence floor existed hold
// just the timestamp and load with floor 0, and fields past the floor
// (older versions wrote per-neighbor id:interval pairs there) are
// ignored.
func (f *FileStorage) LoadMark() (time.Time, uint64, bool, error) {
	data, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return time.Time{}, 0, false, nil
	}
	if err != nil {
		return time.Time{}, 0, false, fmt.Errorf("node: storage read: %w", err)
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return time.Time{}, 0, false, fmt.Errorf("node: storage parse: empty mark file")
	}
	ns, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return time.Time{}, 0, false, fmt.Errorf("node: storage parse: %w", err)
	}
	var seq uint64
	if len(fields) > 1 {
		if seq, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
			return time.Time{}, 0, false, fmt.Errorf("node: storage parse: %w", err)
		}
	}
	return time.Unix(0, ns), seq, true, nil
}

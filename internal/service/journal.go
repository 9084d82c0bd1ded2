// Journal: the append-only NDJSON write-ahead log that makes jobs durable.
//
// One record per line, distinguished by the "t" field:
//
//	{"t":"job","time":T,"id":"j000001","client":"k","priority":0,"req":{...}}   job accepted
//	{"t":"spec","time":T,"job":"j000001","i":3,"key":"ab12...","result":{...}}  spec i completed
//	{"t":"status","time":T,"job":"j000001","status":"done"}                     terminal transition
//
// Appends are flushed (write(2)) per record, so a SIGKILLed process loses at
// most the record being formatted; fsync happens on job boundaries (accept,
// terminal, shutdown), bounding what a power loss can take. Replay is
// prefix-tolerant: the first unparseable line — a torn tail write — ends the
// replay, and every well-formed prefix yields a consistent state (see
// journal_test.go's truncation property test).
//
// Compaction: on startup (and when the live file passes Config's
// JournalMaxBytes after a job finishes) the journal is rewritten to hold
// only the records that still matter — the job/spec records of jobs that are
// not yet terminal — into path+".tmp", fsynced, and atomically renamed over
// the old file. A crash at any point leaves either the old or the new file
// intact, never neither.
package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aggrate/internal/experiment"
)

// journalRecord is the superset of every record shape; writers fill only the
// fields of their record type, readers dispatch on T.
type journalRecord struct {
	T    string    `json:"t"`
	Time time.Time `json:"time"`

	// t=job
	ID       string      `json:"id,omitempty"`
	Client   string      `json:"client,omitempty"`
	Priority int         `json:"priority,omitempty"`
	Req      *JobRequest `json:"req,omitempty"`

	// t=spec / t=status
	Job    string             `json:"job,omitempty"`
	Index  int                `json:"i,omitempty"`
	Key    string             `json:"key,omitempty"`
	Result *experiment.Result `json:"result,omitempty"`
	Status string             `json:"status,omitempty"`
}

// journal owns the append fd. All methods are safe for concurrent use.
type journal struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	w      *bufio.Writer
	closed bool

	faults *faultState
	m      *metrics

	bytesSinceCompact int64
}

// replayedSpec is one completed spec recovered from the journal.
type replayedSpec struct {
	key string
	res *experiment.Result
}

// replayedJob is one job's recovered state: the submission, its last known
// status, and every completed spec.
type replayedJob struct {
	id        string
	client    string
	priority  int
	created   time.Time
	req       JobRequest
	status    string
	completed map[int]replayedSpec
}

// terminal reports whether the job finished for good. "interrupted" is NOT
// terminal here: it marks a job the previous process shut down under, which
// a restart resumes.
func (r *replayedJob) terminal() bool {
	return r.status == StatusDone || r.status == StatusCancelled
}

// replayJournal parses one journal file into per-job recovered state,
// preserving submission order. Missing files replay to empty. The first
// unparseable line ends the replay (torn tail write); records referencing
// unknown jobs are dropped.
func replayJournal(path string) ([]*replayedJob, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	byID := make(map[string]*replayedJob)
	var order []*replayedJob
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Torn tail write: everything before this line is a valid prefix.
			break
		}
		switch rec.T {
		case "job":
			if rec.ID == "" || rec.Req == nil || byID[rec.ID] != nil {
				continue
			}
			j := &replayedJob{
				id: rec.ID, client: rec.Client, priority: rec.Priority,
				created: rec.Time, req: *rec.Req, status: StatusQueued,
				completed: make(map[int]replayedSpec),
			}
			byID[rec.ID] = j
			order = append(order, j)
		case "spec":
			j := byID[rec.Job]
			if j == nil || rec.Result == nil || rec.Index < 0 {
				continue
			}
			j.completed[rec.Index] = replayedSpec{key: rec.Key, res: rec.Result}
		case "status":
			if j := byID[rec.Job]; j != nil && rec.Status != "" {
				j.status = rec.Status
			}
		}
	}
	if err := sc.Err(); err != nil && len(order) == 0 {
		return nil, err
	}
	return order, nil
}

// openJournal replays path (if present), compacts it down to the live jobs,
// and returns the journal opened for append plus the recovered jobs (live
// and terminal — the caller seeds its cache from both but only resumes the
// live ones).
func openJournal(path string, faults *faultState, m *metrics) (*journal, []*replayedJob, error) {
	replayed, err := replayJournal(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal replay %s: %w", path, err)
	}
	j := &journal{path: path, faults: faults, m: m}
	var live []*replayedJob
	for _, rj := range replayed {
		if !rj.terminal() {
			live = append(live, rj)
		}
	}
	if err := j.compact(live); err != nil {
		return nil, nil, fmt.Errorf("journal compact %s: %w", path, err)
	}
	return j, replayed, nil
}

// compact rewrites the journal to exactly the records of the given live
// jobs, atomically replacing the old file, and (re)opens it for append.
// Callers hold no lock on first use; later calls come through maybeCompact
// which holds j.mu.
func (j *journal) compact(live []*replayedJob) error {
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rj := range live {
		req := rj.req
		if err := enc.Encode(journalRecord{T: "job", Time: rj.created, ID: rj.id,
			Client: rj.client, Priority: rj.priority, Req: &req}); err != nil {
			f.Close()
			return err
		}
		for i, sp := range rj.completed {
			if err := enc.Encode(journalRecord{T: "spec", Time: rj.created, Job: rj.id,
				Index: i, Key: sp.key, Result: sp.res}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return err
	}
	syncDir(j.path)
	if j.f != nil {
		j.f.Close()
	}
	af, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = af
	j.w = bufio.NewWriter(af)
	j.bytesSinceCompact = 0
	if j.m != nil {
		j.m.journalCompactions.Add(1)
	}
	return nil
}

// syncDir fsyncs the directory containing path, making a rename durable.
// Best effort: some filesystems refuse directory fsync.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// append writes one record and flushes it to the OS (no fsync). Injected
// faults and real write errors are counted and returned; callers log and
// continue — a broken journal degrades the server to non-durable, it does
// not take it down.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(rec)
}

func (j *journal) appendLocked(rec journalRecord) error {
	if j.closed {
		return fmt.Errorf("journal closed")
	}
	if err := j.faults.beforeAppend(); err != nil {
		j.m.journalErrors.Add(1)
		return err
	}
	rec.Time = rec.Time.UTC()
	b, err := json.Marshal(rec)
	if err != nil {
		j.m.journalErrors.Add(1)
		return err
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		j.m.journalErrors.Add(1)
		return err
	}
	if err := j.w.Flush(); err != nil {
		j.m.journalErrors.Add(1)
		return err
	}
	j.m.journalAppends.Add(1)
	j.m.journalBytes.Add(int64(len(b)))
	j.bytesSinceCompact += int64(len(b))
	return nil
}

// appendSync appends and fsyncs — the job-boundary durability point.
func (j *journal) appendSync(rec journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(rec); err != nil {
		return err
	}
	return j.syncLocked()
}

func (j *journal) sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *journal) syncLocked() error {
	if j.closed {
		return fmt.Errorf("journal closed")
	}
	if err := j.f.Sync(); err != nil {
		j.m.journalErrors.Add(1)
		return err
	}
	j.m.journalFsyncs.Add(1)
	return nil
}

// maybeCompact rewrites the journal when it has grown past maxBytes since
// the last compaction. live is the server's current non-terminal job state.
func (j *journal) maybeCompact(live []*replayedJob, maxBytes int64) error {
	if j == nil || maxBytes <= 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.bytesSinceCompact < maxBytes {
		return nil
	}
	if err := j.compact(live); err != nil {
		j.m.journalErrors.Add(1)
		return err
	}
	return nil
}

// close flushes, fsyncs, and closes the fd. crash (test/fault hook) skips
// the flush+fsync, modeling SIGKILL.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Sync(); err == nil {
		j.m.journalFsyncs.Add(1)
	}
	return j.f.Close()
}

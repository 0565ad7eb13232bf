package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// EventType names one step of a query's lifecycle in the event journal.
type EventType string

// Query lifecycle event types, in the order a successful served query
// emits them. Library sessions (no serve daemon in front) start at
// EvPlanned — received/queued/admitted are admission-control steps.
const (
	EvReceived   EventType = "received"    // submission arrived (serve)
	EvQueued     EventType = "queued"      // waiting for admission; Cause says on what
	EvAdmitted   EventType = "admitted"    // admission granted; Seconds is the wait
	EvPlanned    EventType = "planned"     // plan chosen; Plan/PredSeconds/CompileSeconds describe it
	EvReplanned  EventType = "replanned"   // feedback loop swapped the plan mid-flight
	EvStageStart EventType = "stage_start" // one distributed stage began
	EvStageEnd   EventType = "stage_end"   // stage finished; Flight carries pred vs meas
	EvDone       EventType = "done"        // query completed; Seconds is end-to-end
	EvFailed     EventType = "failed"      // query failed; Error says why
)

// Event is one entry of the per-query event journal. Fields beyond the
// identity triple (Query, Seq, Type) are populated per type and omitted from
// the JSON encoding when empty, so the JSONL sink stays compact. A stage_end
// event embeds the exact FlightRecord the flight recorder wrote for the same
// stage — the query-introspection endpoint serves these verbatim, which is
// what makes its predicted-vs-measured costs match the flight file exactly.
type Event struct {
	Query    string    `json:"query"`
	Seq      int64     `json:"seq"`
	Type     EventType `json:"type"`
	UnixNano int64     `json:"t_unix_nano,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`

	// Admission (received/queued/admitted).
	Cause string `json:"cause,omitempty"` // what a queued submission waits on

	// Planning (planned/replanned).
	Engine       string  `json:"engine,omitempty"`
	Plan         string  `json:"plan,omitempty"` // PhysPlan.Describe text
	PlanCacheHit bool    `json:"plan_cache_hit,omitempty"`
	Operators    int     `json:"operators,omitempty"`
	PredSeconds  float64 `json:"pred_seconds,omitempty"` // Eq. 2 total across operators
	Divergence   float64 `json:"divergence,omitempty"`   // replan trigger ratio
	// CompileSeconds is the wall time spent producing the plan: parse, CFG
	// and the (P,Q,R) search, or the lookup on a plan-cache hit.
	CompileSeconds float64 `json:"compile_seconds,omitempty"`

	// Stages (stage_start/stage_end).
	Stage  string        `json:"stage,omitempty"`
	Op     string        `json:"op,omitempty"`
	Tasks  int           `json:"tasks,omitempty"`
	Flight *FlightRecord `json:"flight,omitempty"`
	Skew   *StageSkew    `json:"skew,omitempty"`

	// Completion (done/failed) and waits (admitted).
	Seconds float64 `json:"seconds,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// DefaultJournalRing is the in-memory event capacity when NewJournal is
// given a non-positive size.
const DefaultJournalRing = 4096

// Journal is the per-query event log: a bounded in-memory ring every
// component appends lifecycle events to, with an optional JSONL file sink
// for offline analysis. One journal is shared across the sessions of a
// serve daemon so `GET /v1/queries/{id}` can join any query's events. Safe
// for concurrent use; a nil *Journal absorbs every call.
type Journal struct {
	mu    sync.Mutex
	ring  []Event // capacity-bounded; oldest overwritten first
	next  int     // ring write cursor
	total int64   // events ever appended

	sink *bufio.Writer // optional JSONL sink
	c    io.Closer     // underlying file, when OpenJournal created one
	err  error         // latched sink write error

	now func() time.Time // test hook; nil = time.Now
}

// NewJournal returns a journal holding the last ring events in memory
// (non-positive selects DefaultJournalRing).
func NewJournal(ring int) *Journal {
	if ring <= 0 {
		ring = DefaultJournalRing
	}
	return &Journal{ring: make([]Event, 0, ring)}
}

// OpenJournal is NewJournal plus a JSONL file sink at path (created or
// truncated). Close flushes and releases the file.
func OpenJournal(path string, ring int) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: journal: %w", err)
	}
	j := NewJournal(ring)
	j.sink = bufio.NewWriter(f)
	j.c = f
	return j, nil
}

// NewJournalWriter is NewJournal plus a JSONL sink onto an arbitrary writer
// (tests, in-memory buffers). The writer is flushed by Close but not closed.
func NewJournalWriter(w io.Writer, ring int) *Journal {
	j := NewJournal(ring)
	j.sink = bufio.NewWriter(w)
	return j
}

// append stamps and stores one event, mirroring it to the sink.
func (j *Journal) append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if e.UnixNano == 0 {
		if j.now != nil {
			e.UnixNano = j.now().UnixNano()
		} else {
			e.UnixNano = time.Now().UnixNano()
		}
	}
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
	} else {
		j.ring[j.next] = e
	}
	j.next = (j.next + 1) % cap(j.ring)
	j.total++
	if j.sink != nil && j.err == nil {
		line, err := json.Marshal(e)
		if err == nil {
			_, err = j.sink.Write(append(line, '\n'))
		}
		j.err = err
	}
}

// snapshot returns the ring's events oldest-first.
func (j *Journal) snapshot() []Event {
	if len(j.ring) < cap(j.ring) {
		return append([]Event(nil), j.ring...)
	}
	out := make([]Event, 0, len(j.ring))
	out = append(out, j.ring[j.next:]...)
	return append(out, j.ring[:j.next]...)
}

// Events returns the retained events of one query, in sequence order.
func (j *Journal) Events(query string) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for _, e := range j.snapshot() {
		if e.Query == query {
			out = append(out, e)
		}
	}
	return out
}

// Recent returns the last n retained events (all of them when n <= 0),
// oldest first.
func (j *Journal) Recent(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	all := j.snapshot()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Total returns how many events were ever appended (including any the ring
// has since overwritten).
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Err returns the latched sink write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Flush forces buffered sink output to the underlying writer.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink != nil && j.err == nil {
		j.err = j.sink.Flush()
	}
	return j.err
}

// Close flushes the sink and releases the underlying file (when OpenJournal
// created one). The in-memory ring stays readable.
func (j *Journal) Close() error {
	err := j.Flush()
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
		j.c = nil
	}
	return err
}

// Begin opens one query's event log: subsequent Emit calls stamp the query
// id, tenant and a per-query sequence number. Safe on a nil journal (the
// returned log absorbs every Emit).
func (j *Journal) Begin(query, tenant string) *QueryLog {
	if j == nil {
		return nil
	}
	return &QueryLog{j: j, query: query, tenant: tenant}
}

// QueryLog emits one query's events into its journal with a shared sequence
// counter, so serve-level admission events and session-level stage events
// interleave in order. Safe for concurrent use; nil absorbs every call.
type QueryLog struct {
	j      *Journal
	query  string
	tenant string
	mu     sync.Mutex
	seq    int64
}

// Query returns the query id this log stamps (empty on nil).
func (q *QueryLog) Query() string {
	if q == nil {
		return ""
	}
	return q.query
}

// Emit appends one event, filling in the query id, tenant and sequence.
func (q *QueryLog) Emit(e Event) {
	if q == nil {
		return
	}
	e.Query = q.query
	if e.Tenant == "" {
		e.Tenant = q.tenant
	}
	q.mu.Lock()
	q.seq++
	e.Seq = q.seq
	q.mu.Unlock()
	q.j.append(e)
}

// ReadEvents parses a JSONL stream of journal events (the file sink's
// format).
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: journal event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

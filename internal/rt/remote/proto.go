// Package remote implements the TCP runtime backend: a coordinator that
// satisfies rt.Runtime by scheduling descriptor-based stages over worker
// processes, and the worker loop those processes run.
//
// The protocol is deliberately small. Every connection carries length-framed
// messages ([type byte][uint32 big-endian length][payload]); control
// messages are gob-encoded, matrix blocks travel in the FME1 binary format.
// The coordinator opens one persistent control connection per worker for the
// handshake and heartbeats, and one fresh connection per task. A task
// connection is a private request/response channel: the coordinator assigns
// the task, then serves the worker's block fetches until the worker reports
// the task done (with its result blocks and metering counters) or failed.
// Pull-based fetching means the worker discovers exactly the blocks the
// fused kernel needs — the same dedup and colocation accounting as the
// simulated backend, because both run the identical executor task body.
package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"fuseme/internal/blockcache"
	"fuseme/internal/cluster"
	"fuseme/internal/rt/spec"
)

// Protocol version, checked during the control-connection handshake.
// Version 2 added the block-cache coherence frames (msgCacheAd,
// msgCacheInval) and the stage generation in taskAssign. Version 3 added
// distributed tracing: the Trace flag in taskAssign, worker span batches in
// taskDone, and the worker-clock timestamp in the pong payload that the
// coordinator's skew estimator consumes. Version 4 added elastic
// membership: msgJoin/msgLeave on the coordinator's join listener so
// workers register (and drain away) at any time, msgMemberUpdate pushing
// the membership table to workers, and msgCachePut carrying replicated
// cache blocks to secondary holders. Version 5 added pipelined stage
// execution: prefetch hints in taskAssign with msgPrefetch pulls on the
// task connection, the worker's fetch report (taskDone.Fetched) feeding the
// coordinator's prefetch history, and the work-stealing pair
// msgTaskSteal/msgTaskRelease. Version 6 removed the per-worker steal
// opt-out: workers no longer send msgTaskSteal before msgDone, and every
// live worker may steal unless the cluster disables stealing
// (cluster.Config.DisableStealing). Frame number 17 stays reserved.
const protoVersion = 6

// Frame types.
const (
	msgHello    = byte(1)  // coordinator → worker: gob(hello), opens control conn
	msgHelloAck = byte(2)  // worker → coordinator: gob(helloAck)
	msgPing     = byte(3)  // coordinator → worker: empty
	msgPong     = byte(4)  // worker → coordinator: gob(pong)
	msgTask     = byte(5)  // coordinator → worker: gob(taskAssign), opens task conn
	msgFetch    = byte(6)  // worker → coordinator: gob(spec.BlockRef)
	msgBlock    = byte(7)  // coordinator → worker: block payload (see below)
	msgDone     = byte(8)  // worker → coordinator: gob(taskDone)
	msgFail     = byte(9)  // worker → coordinator: gob(taskFail)
	msgCacheAd  = byte(10) // worker → coordinator: spec.EncodeCacheAdvert, on task conn before msgDone
	msgCacheInv = byte(11) // coordinator → worker: spec.EncodeCacheInvalidate, on control conn, no reply

	// Elastic-membership frames (proto v4).
	msgJoin         = byte(12) // worker → coordinator: gob(joinReq), on join listener
	msgLeave        = byte(13) // worker → coordinator: gob(leaveReq), on join listener
	msgMemberUpdate = byte(14) // coordinator → worker: gob(memberUpdate); join/leave ack and control-conn push
	msgCachePut     = byte(15) // coordinator → worker: gob(cachePut), on control conn, no reply

	// Pipelined-execution frames (proto v5).
	msgPrefetch    = byte(16) // worker → coordinator: gob(spec.BlockRef), on task conn; reply msgBlock. A pull for the NEXT task's input.
	_              = byte(17) // reserved: msgTaskSteal, the v5 steal opt-in, removed in v6
	msgTaskRelease = byte(18) // coordinator → worker: gob(taskRelease), on control conn, no reply; drop prefetched state for a stolen task
)

// Block payload status bytes (first byte of a msgBlock payload).
const (
	blockNil   = byte(0) // all-zero block; no data follows
	blockData  = byte(1) // FME1 bytes follow
	blockError = byte(2) // error string follows
)

// maxFrame bounds a single frame. Blocks are at most BlockSize² float64s
// plus sparse indexing, far below this; the cap guards against corrupt
// length prefixes.
const maxFrame = 1 << 30

type hello struct {
	Proto int
}

type helloAck struct {
	Proto int
}

// taskAssign ships one task: the full stage descriptor plus the task index
// and the stage's cache generation (blocks a worker cached at generation g
// are only hit-visible to tasks with a strictly greater generation).
// Re-sending the descriptor per task keeps the protocol stateless; stage
// descriptors are small (a flattened plan and partition ranges).
//
// KernelThreads/TaskSlots carry the coordinator's intra-task parallelism
// settings: the kernel-thread count resolved from the cluster config (0 means
// "worker decides") and the per-worker slot count the pool's helper budget is
// sized against. Both are new in this proto revision; gob decodes frames from
// older coordinators with the fields left zero, which degrades to the
// worker-local default — no version bump needed.
type taskAssign struct {
	Stage         spec.Stage
	TaskID        int
	Gen           uint64
	KernelThreads int
	TaskSlots     int

	// Trace asks the worker to record per-task sub-spans (fetch, kernel,
	// cache, send) and ship them back in taskDone.Spans. Trace context
	// propagation is this one bit plus the task identity already in the
	// assignment — the coordinator rebuilds the global timeline from those.
	Trace bool

	// Pipelined execution (proto v5). PrefetchTask (-1 = none) is the
	// worker's next queued task of this stage; PrefetchRefs the ordered
	// blocks that task pulled on its last run (the coordinator's recorded
	// history); PrefetchBudget the admission byte budget. While this task's
	// kernel runs, the worker pulls those blocks over the same connection
	// (msgPrefetch) into a buffer the next assignment consumes. A zero
	// budget disables prefetch and the worker's fetch report alike.
	PrefetchTask   int
	PrefetchRefs   []spec.BlockRef
	PrefetchBudget int64
}

// taskDone reports a completed task: its result blocks and the metering the
// worker-side cluster.Task accumulated. Spans carries the worker's span batch
// (worker-clock timestamps; the coordinator skew-corrects them) when the
// assignment requested tracing, led by the enclosing whole-task span.
type taskDone struct {
	Metrics cluster.TaskMetrics
	Blocks  []spec.OutBlock
	Spans   []spec.SpanRec

	// Fetched is the ordered list of refs the task pulled through its fetch
	// path (wire fetches plus buffered prefetch hits; cache hits never reach
	// it). The coordinator records it as the task's prefetch hint for the
	// next execution of the same stage shape. Only populated when the
	// assignment carried a positive PrefetchBudget.
	Fetched []spec.BlockRef
}

// taskRelease tells a worker that a task it may have prefetched for was
// stolen by another worker: drop any buffered blocks for (Gen, TaskID).
// Pushed on the control connection; no reply (the buffer is an optimisation,
// a missed release only wastes memory until the stage's buffers collect).
type taskRelease struct {
	Gen    uint64
	TaskID int
}

// pong is the heartbeat reply. UnixNano is the worker's wall clock at reply
// time; with the coordinator's send/receive timestamps it yields one NTP-style
// clock-offset sample (offset ≈ workerT − (sent + RTT/2)).
type pong struct {
	UnixNano int64
}

// taskFail reports a task whose body returned an error. This is an
// application failure, not a transport failure: retrying it on another
// worker re-runs the same deterministic computation.
type taskFail struct {
	Err string
}

// joinReq asks the coordinator to admit a worker listening on Addr. Sent on
// a short-lived connection to the coordinator's join listener; the reply is
// msgMemberUpdate (admitted — the payload is the current membership view)
// or msgFail.
type joinReq struct {
	Proto int
	Addr  string
}

// leaveReq announces a voluntary departure of the worker listening on Addr
// (the drain path). The coordinator stops dispatching to it immediately;
// in-flight tasks finish on their private task connections.
type leaveReq struct {
	Addr string
}

// MemberInfo is one worker's row in a membership update, mirroring
// membership.Member without importing it into the wire format.
type MemberInfo struct {
	ID    int
	Addr  string
	State string
	Epoch uint64
}

// memberUpdate carries the coordinator's membership table: the cluster
// epoch and every member row. Pushed on control connections after each
// membership change and returned as the join/leave acknowledgement.
type memberUpdate struct {
	Epoch   uint64
	Members []MemberInfo
}

// cachePut replicates one cached block to a secondary holder: the worker
// stores Data (FME1 bytes; empty = all-zero block) under Key at generation
// Gen, exactly as if its own task had cached it. No reply — the coordinator
// records the placement in its residency ledger optimistically and any loss
// shows up as a miss, never as corruption.
type cachePut struct {
	Key  blockcache.Key
	Gen  uint64
	Data []byte
}

// writeFrame writes one framed message.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// frameChunk is the largest payload readFrame allocates up front. A header
// is only a claim: larger payloads grow as their bytes actually arrive, so a
// forged length costs its sender the bytes, not the reader the allocation.
const frameChunk = 1 << 20

// readFrame reads one framed message.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(hdr[1:])
	if size > maxFrame {
		return 0, nil, fmt.Errorf("remote: frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	if n == 0 {
		return hdr[0], nil, nil
	}
	payload = make([]byte, min(n, frameChunk))
	for read := 0; ; {
		if _, err := io.ReadFull(r, payload[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised more
			}
			return 0, nil, err
		}
		if read = len(payload); read == n {
			return hdr[0], payload, nil
		}
		grown := make([]byte, min(n, 2*read))
		copy(grown, payload)
		payload = grown
	}
}

// writeGob writes a gob-encoded framed message.
func writeGob(w io.Writer, typ byte, v any) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return err
	}
	return writeFrame(w, typ, b.Bytes())
}

// decodeGob decodes a gob payload into v.
func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// expectFrame reads a frame and checks its type.
func expectFrame(r io.Reader, want byte) ([]byte, error) {
	typ, payload, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("remote: expected frame type %d, got %d", want, typ)
	}
	return payload, nil
}

// Package rooms implements live telemetry rooms: bounded fan-out of
// in-flight simulation telemetry to N subscribers.
//
// A Room is fed frames by the simulation side (Publish) and owns one
// broadcaster goroutine that stamps each frame with a dense room-wide
// sequence number, appends it to a bounded replay history, and fans it
// out to every subscriber over a bounded channel. The cardinal rule is
// that telemetry never applies backpressure to the simulation:
//
//   - Publish never blocks. If the broadcaster's intake buffer is full
//     (it drains at memory speed, so this takes a pathological stall)
//     the frame is dropped at intake — for everyone equally, before a
//     sequence number is assigned, so subscriber streams stay gapless.
//   - Subscriber sends never block. A subscriber whose channel is full
//     is evicted: its channel is closed and serve_room_drops_total is
//     bumped. An evicted client re-attaches with ?from=next_seq and is
//     healed from the replay history (the client library's FollowWatch
//     does this automatically), so eviction costs a round trip, never
//     correctness.
//
// Resume: Subscribe(from) replays retained history from sequence
// number `from` and then hands off to live delivery atomically (under
// the same lock the broadcaster appends with), so a resuming client
// sees no gap and no duplicate. History is bounded; a `from` older
// than the oldest retained frame fails with ErrGone.
//
// Rooms are identified by short random join codes and are in-memory
// only: they do not survive a daemon restart. A closed room is
// retained for a TTL so late watchers can still replay the full run,
// then garbage-collected.
package rooms

import (
	"crypto/rand"
	"errors"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/apitypes"
)

// Errors returned by Registry.Get and Room.Subscribe.
var (
	// ErrNotFound: no room with that join code (never existed, or
	// expired after close).
	ErrNotFound = errors.New("rooms: no such room")
	// ErrGone: the requested resume point has been evicted from the
	// room's bounded history.
	ErrGone = errors.New("rooms: resume point evicted from history")
)

// Options tunes the registry's rooms. The zero value gets defaults.
type Options struct {
	// Buffer is the per-subscriber channel capacity; a subscriber this
	// far behind the broadcast is evicted (default 256).
	Buffer int
	// History is how many frames a room retains for resume (default
	// 65536).
	History int
	// TTL is how long a closed room is kept for late replay
	// (default 2m).
	TTL time.Duration
}

// intake is the broadcaster's inbound buffer: Publish never blocks,
// so a burst the broadcaster has not drained yet must fit here or be
// dropped (see the package doc).
const intake = 1024

func (o Options) withDefaults() Options {
	if o.Buffer <= 0 {
		o.Buffer = 256
	}
	if o.History <= 0 {
		o.History = 65536
	}
	if o.TTL <= 0 {
		o.TTL = 2 * time.Minute
	}
	return o
}

// Registry owns every live room, keyed by join code.
type Registry struct {
	opts Options

	mu    sync.Mutex
	rooms map[string]*Room

	mOpen   *obs.Gauge
	mSubs   *obs.Gauge
	mFrames *obs.Counter
	mDrops  *obs.Counter
}

// NewRegistry builds a room registry. A nil reg means a private
// metrics registry.
func NewRegistry(reg *obs.Registry, opts Options) *Registry {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Registry{
		opts:    opts.withDefaults(),
		rooms:   map[string]*Room{},
		mOpen:   reg.Gauge("serve_rooms_open", "telemetry rooms currently open (live or in post-close retention)"),
		mSubs:   reg.Gauge("serve_room_subscribers", "subscribers currently attached to telemetry rooms"),
		mFrames: reg.Counter("serve_room_frames_total", "telemetry frames published into rooms"),
		mDrops:  reg.Counter("serve_room_drops_total", "subscribers evicted for falling behind the broadcast"),
	}
}

// Open creates a room with a fresh join code and starts its
// broadcaster.
func (r *Registry) Open() *Room {
	rm := &Room{
		reg:  r,
		in:   make(chan apitypes.WatchFrame, intake),
		done: make(chan struct{}),
		hist: make([]apitypes.WatchFrame, r.opts.History),
		subs: map[*Subscriber]struct{}{},
	}
	r.mu.Lock()
	for {
		rm.code = joinCode()
		if _, taken := r.rooms[rm.code]; !taken {
			break
		}
	}
	r.rooms[rm.code] = rm
	r.mu.Unlock()
	r.mOpen.Add(1)
	go rm.broadcast()
	return rm
}

// Get resolves a join code. Expired rooms are collected on the way.
func (r *Registry) Get(code string) (*Room, error) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gcLocked(now)
	rm, ok := r.rooms[code]
	if !ok {
		return nil, ErrNotFound
	}
	return rm, nil
}

// Stats returns the registry's current totals (the /v1/statsz rooms
// section). Expired rooms are collected on the way, so Open counts
// only rooms a watcher could still attach to.
func (r *Registry) Stats() apitypes.RoomStats {
	r.mu.Lock()
	r.gcLocked(time.Now())
	open := len(r.rooms)
	r.mu.Unlock()
	return apitypes.RoomStats{
		Open:        int64(open),
		Subscribers: int64(r.mSubs.Value()),
		Frames:      r.mFrames.Value(),
		Drops:       r.mDrops.Value(),
	}
}

// gcLocked removes rooms whose post-close retention has lapsed.
func (r *Registry) gcLocked(now time.Time) {
	for code, rm := range r.rooms {
		rm.mu.Lock()
		expired := rm.summary != nil && now.Sub(rm.closedAt) > r.opts.TTL
		rm.mu.Unlock()
		if expired {
			delete(r.rooms, code)
			r.mOpen.Add(-1)
		}
	}
}

// joinCodeAlphabet avoids ambiguous characters (0/O, 1/l) so codes
// survive being read aloud or retyped.
const joinCodeAlphabet = "abcdefghjkmnpqrstuvwxyz23456789"

// joinCode returns a short random room code (~31^6 ≈ 887M states).
func joinCode() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("rooms: crypto/rand unavailable: " + err.Error())
	}
	for i := range b {
		b[i] = joinCodeAlphabet[int(b[i])%len(joinCodeAlphabet)]
	}
	return string(b[:])
}

// Room is one live telemetry stream. See the package comment for the
// delivery contract.
type Room struct {
	reg  *Registry
	code string

	// pubMu gates Publish/Close against each other: publishers hold the
	// read side around their channel send, Close takes the write side to
	// flip closed before closing the channel, so a late Publish from a
	// concurrent sweep cell can never send on a closed channel.
	pubMu  sync.RWMutex
	closed bool
	in     chan apitypes.WatchFrame
	done   chan struct{} // broadcaster exited

	mu        sync.Mutex
	hist      []apitypes.WatchFrame // ring buffer, cap == Options.History
	histStart int                   // ring index of firstSeq
	histLen   int
	firstSeq  int // seq of the oldest retained frame
	nextSeq   int // seq the next published frame will get
	subs      map[*Subscriber]struct{}
	summary   *apitypes.WatchSummary // non-nil once closed
	closedAt  time.Time
	pending   apitypes.WatchSummary // summary template filled by Close
}

// Code returns the room's join code.
func (rm *Room) Code() string { return rm.code }

// Publish hands one frame to the broadcaster. The frame's Seq is
// assigned by the room; the caller's value is ignored. Publish never
// blocks and is safe from any number of goroutines, concurrently with
// Close: frames racing a Close may be delivered or dropped, but never
// panic and never block.
func (rm *Room) Publish(f apitypes.WatchFrame) {
	rm.pubMu.RLock()
	defer rm.pubMu.RUnlock()
	if rm.closed {
		return
	}
	select {
	case rm.in <- f:
	default:
		// intake overrun: drop pre-sequencing (gapless for everyone).
		// Only a stalled broadcaster can cause this; subscribers cannot,
		// their sends are non-blocking.
	}
}

// Close ends the room: published frames already in flight are
// delivered, then every subscriber receives the summary (Frames and
// NextSeq are filled in by the room) and is closed. Close is
// idempotent; the room stays available for replay until the TTL.
func (rm *Room) Close(summary apitypes.WatchSummary) {
	rm.pubMu.Lock()
	if rm.closed {
		rm.pubMu.Unlock()
		return
	}
	rm.closed = true
	rm.mu.Lock()
	rm.pending = summary
	rm.mu.Unlock()
	close(rm.in)
	rm.pubMu.Unlock()
	<-rm.done
}

// broadcast is the room's single broadcaster goroutine: sequence,
// retain, fan out; on intake close, seal the room.
func (rm *Room) broadcast() {
	for f := range rm.in {
		rm.mu.Lock()
		f.Seq = rm.nextSeq
		rm.nextSeq++
		rm.histAppend(f)
		for sub := range rm.subs {
			select {
			case sub.ch <- f:
			default:
				// Slow consumer: evict rather than block the broadcast.
				delete(rm.subs, sub)
				close(sub.ch)
				rm.reg.mSubs.Add(-1)
				rm.reg.mDrops.Inc()
			}
		}
		rm.mu.Unlock()
		rm.reg.mFrames.Inc()
	}
	rm.mu.Lock()
	sum := rm.pending
	sum.Frames = rm.nextSeq
	sum.NextSeq = rm.nextSeq
	rm.summary = &sum
	rm.closedAt = time.Now()
	for sub := range rm.subs {
		sub.summary = rm.summary
		close(sub.ch)
		rm.reg.mSubs.Add(-1)
	}
	rm.subs = map[*Subscriber]struct{}{}
	rm.mu.Unlock()
	close(rm.done)
}

// histAppend pushes f into the replay ring, evicting the oldest frame
// once the ring is full. Caller holds rm.mu.
func (rm *Room) histAppend(f apitypes.WatchFrame) {
	if rm.histLen == len(rm.hist) {
		rm.histStart = (rm.histStart + 1) % len(rm.hist)
		rm.firstSeq++
		rm.histLen--
	}
	rm.hist[(rm.histStart+rm.histLen)%len(rm.hist)] = f
	rm.histLen++
}

// histFrom copies retained frames with seq >= from. Caller holds rm.mu
// and has checked from >= rm.firstSeq.
func (rm *Room) histFrom(from int) []apitypes.WatchFrame {
	if from < rm.firstSeq {
		from = rm.firstSeq
	}
	n := rm.nextSeq - from
	if n <= 0 {
		return nil
	}
	out := make([]apitypes.WatchFrame, n)
	for i := 0; i < n; i++ {
		out[i] = rm.hist[(rm.histStart+(from-rm.firstSeq)+i)%len(rm.hist)]
	}
	return out
}

// Subscriber is one attached watcher. Read Ch until it closes, then
// check Summary: non-nil means the room closed normally (the summary is
// the stream's last word); nil means eviction — re-attach at the next
// sequence number.
type Subscriber struct {
	ch      chan apitypes.WatchFrame
	summary *apitypes.WatchSummary
	room    *Room
}

// Ch is the subscriber's live frame channel.
func (s *Subscriber) Ch() <-chan apitypes.WatchFrame { return s.ch }

// Summary returns the room's closing summary once Ch is closed (nil if
// the subscriber was evicted instead).
func (s *Subscriber) Summary() *apitypes.WatchSummary { return s.summary }

// Subscribe attaches a watcher at sequence number `from`: frames
// [from, now) still retained come back as the replay slice, everything
// later arrives on the subscriber's channel with no gap and no
// duplicate. from = 0 means "the oldest retained frame"; any other
// `from` older than that fails with ErrGone so the caller knows the
// replay would be incomplete. buffer overrides the subscriber's channel
// capacity — its eviction threshold — when positive (0 = the registry
// default). On a closed room the returned subscriber is nil and the
// summary is immediately available via Summary — the caller gets
// replay + summary, no live phase.
func (rm *Room) Subscribe(from, buffer int) ([]apitypes.WatchFrame, *Subscriber, *apitypes.WatchSummary, error) {
	if buffer <= 0 {
		buffer = rm.reg.opts.Buffer
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if from != 0 && from < rm.firstSeq {
		return nil, nil, nil, ErrGone
	}
	if from > rm.nextSeq {
		from = rm.nextSeq // future resume point: nothing to replay, wait live
	}
	replay := rm.histFrom(from)
	if rm.summary != nil {
		return replay, nil, rm.summary, nil
	}
	sub := &Subscriber{ch: make(chan apitypes.WatchFrame, buffer), room: rm}
	rm.subs[sub] = struct{}{}
	rm.reg.mSubs.Add(1)
	return replay, sub, nil, nil
}

// Unsubscribe detaches a live subscriber (client went away). Safe to
// call after eviction or room close; it only detaches if the
// subscriber is still attached.
func (rm *Room) Unsubscribe(sub *Subscriber) {
	if sub == nil {
		return
	}
	rm.mu.Lock()
	_, attached := rm.subs[sub]
	if attached {
		delete(rm.subs, sub)
		close(sub.ch)
	}
	rm.mu.Unlock()
	if attached {
		rm.reg.mSubs.Add(-1)
	}
}

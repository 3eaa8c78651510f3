package clusterrun

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mrbc/internal/gluon"
)

// Socket-level fault injection for the TCP transport. A FaultProxy
// sits between the cluster's dialers and one host's real transport
// listener and mangles the forward (data) direction frame by frame:
// drop, duplicate, delay, or sever, each decided by a pure function of
// (seed, dialing host, dial attempt, frame index). The reverse (ack)
// direction passes through verbatim — faulting data is enough to
// exercise every recovery path (retransmit, duplicate discard,
// re-dial), and clean acks keep the decision space small enough to
// replay exactly.
//
// Recoverability is by construction, not luck: only the first
// FaultFrames frames of a connection are eligible for random faults
// (retransmissions push the frame index past the window), and every
// dial attempt numbered ≥ CleanAfter passes completely clean (a
// severed connection is re-dialed into a calmer world). The only
// permanent faults are the explicit SeverAll/SeverHosts flags, which
// the chaos suite uses to assert that a dead host surfaces as a
// structured fault rather than a hang.

// Action is one per-frame proxy decision.
type Action byte

const (
	ActNone Action = iota
	ActDrop
	ActDup
	ActDelay
	ActSever
)

// String names the action for logs and test output.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActDrop:
		return "drop"
	case ActDup:
		return "dup"
	case ActDelay:
		return "delay"
	case ActSever:
		return "sever"
	}
	return fmt.Sprintf("action(%d)", byte(a))
}

// ProxyPlan is a deterministic fault schedule. The zero value passes
// everything through untouched.
type ProxyPlan struct {
	// Seed drives every random decision; equal plans make equal
	// decisions for equal (from, attempt, frame) keys.
	Seed uint64
	// DropPct/DupPct/DelayPct/SeverPct are per-frame percentage chances
	// inside the fault window, evaluated in that order.
	DropPct  int
	DupPct   int
	DelayPct int
	SeverPct int
	// FaultFrames is the fault window: only frames 0..FaultFrames-1 of
	// a connection are eligible for random faults. 0 disables random
	// faults entirely.
	FaultFrames int
	// CleanAfter is the dial attempt (per dialing host, counted from 0)
	// from which every connection passes clean (default 3). This is the
	// recoverability guarantee.
	CleanAfter int
	// MaxDelay bounds ActDelay's sleep (default 3 ms).
	MaxDelay time.Duration
	// SeverAll cuts every connection immediately and permanently (the
	// guarded host is unreachable).
	SeverAll bool
	// SeverHosts cuts every connection dialed by the listed hosts,
	// permanently (isolates those hosts from the guarded one).
	SeverHosts []int
	// KillHosts + KillAtFrame model a host SIGKILL mid-run: a connection
	// dialed by a listed host is severed at data frame KillAtFrame, and
	// — unlike SeverHosts, which is stateless — once the kill has
	// triggered, every later frame and connection from a listed host
	// through this proxy is severed. Without the persistence the
	// victim's retransmissions would deliver KillAtFrame fresh frames
	// per re-dial, letting a "dead" host limp forward indefinitely.
	KillHosts   []int
	KillAtFrame int
	// Kill shares the trigger state across the proxies modeling one
	// host's death: a real SIGKILL drops every connection of the victim
	// at once, so the first link to hit its trigger frame condemns the
	// rest — per-link kills would leave the cluster with an ambiguous
	// link failure instead of a dead host. Nil gets a private switch.
	Kill *KillSwitch
}

// KillSwitch is the shared "host is dead" latch for a set of kill
// plans; see ProxyPlan.Kill.
type KillSwitch struct{ dead atomic.Bool }

func (s *KillSwitch) trip()         { s.dead.Store(true) }
func (s *KillSwitch) tripped() bool { return s.dead.Load() }

func (p ProxyPlan) cleanAfter() int {
	if p.CleanAfter <= 0 {
		return 3
	}
	return p.CleanAfter
}

func (p ProxyPlan) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 3 * time.Millisecond
	}
	return p.MaxDelay
}

// mix64 is the splitmix64 finalizer — a cheap, well-mixed hash for
// deterministic per-frame decisions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (p ProxyPlan) key(from, attempt, frame int) uint64 {
	k := mix64(p.Seed ^ 0x6d72626370727879)
	k = mix64(k ^ (uint64(uint32(from)) + 1))
	k = mix64(k ^ (uint64(uint32(attempt)) + 1))
	k = mix64(k ^ (uint64(uint32(frame)) + 1))
	return k
}

// Decide returns the schedule's action for one frame: the dialing
// host, its dial attempt (0-based), and the data-frame index within
// the connection (hello is frame -1 and is never randomly faulted —
// mangling the identification frame only churns connections without
// exercising new recovery paths). Decide is a pure function, so a
// schedule can be replayed or audited without any network at all.
func (p ProxyPlan) Decide(from, attempt, frame int) Action {
	if p.SeverAll {
		return ActSever
	}
	for _, h := range p.SeverHosts {
		if h == from {
			return ActSever
		}
	}
	if frame < 0 || attempt >= p.cleanAfter() || frame >= p.FaultFrames {
		return ActNone
	}
	pick := int(p.key(from, attempt, frame) % 100)
	if pick < p.DropPct {
		return ActDrop
	}
	if pick < p.DropPct+p.DupPct {
		return ActDup
	}
	if pick < p.DropPct+p.DupPct+p.DelayPct {
		return ActDelay
	}
	if pick < p.DropPct+p.DupPct+p.DelayPct+p.SeverPct {
		return ActSever
	}
	return ActNone
}

// delayFor derives ActDelay's deterministic sleep from the same key.
func (p ProxyPlan) delayFor(from, attempt, frame int) time.Duration {
	return time.Duration(p.key(from, attempt, frame) >> 32 % uint64(p.maxDelay()))
}

// Decision is one applied (non-none) fault, recorded for test
// assertions and failure forensics.
type Decision struct {
	From    int
	Attempt int
	Frame   int
	Act     Action
}

// FaultProxy guards one host's transport listener.
type FaultProxy struct {
	plan   ProxyPlan
	target string
	ln     net.Listener

	mu       sync.Mutex
	attempts map[int]int
	log      []Decision
	conns    map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// NewFaultProxy starts a proxy on a fresh localhost port forwarding to
// target under the plan.
func NewFaultProxy(target string, plan ProxyPlan) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("clusterrun: proxy listen: %w", err)
	}
	if len(plan.KillHosts) > 0 && plan.Kill == nil {
		plan.Kill = &KillSwitch{}
	}
	p := &FaultProxy{
		plan:     plan,
		target:   target,
		ln:       ln,
		attempts: make(map[int]int),
		conns:    make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address dialers should use instead of the target's.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// Log returns the applied fault decisions so far, in arrival order.
func (p *FaultProxy) Log() []Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Decision(nil), p.log...)
}

// Close stops the proxy and cuts every live connection through it.
func (p *FaultProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.ln.Close()
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(conn) {
			conn.Close()
			return
		}
		p.wg.Add(1)
		go p.handle(conn)
	}
}

func (p *FaultProxy) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[conn] = struct{}{}
	return true
}

func (p *FaultProxy) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

func (p *FaultProxy) record(d Decision) {
	p.mu.Lock()
	p.log = append(p.log, d)
	p.mu.Unlock()
}

// handle forwards one dialed connection: identify the dialer from its
// hello frame, then relay data frames under the schedule while acks
// stream back untouched.
func (p *FaultProxy) handle(client net.Conn) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()
	target, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		return
	}
	if !p.track(target) {
		target.Close()
		return
	}
	defer p.untrack(target)
	defer target.Close()

	// Reverse direction (acks) passes through verbatim; closing either
	// side unblocks the copy via its conn's deadline-free Read error.
	go func() {
		io.Copy(client, target)
		client.Close()
	}()

	br := bufio.NewReaderSize(client, 64<<10)
	hello, err := gluon.ReadFrame(br)
	if err != nil {
		return
	}
	from := gluon.HelloHost(hello)
	p.mu.Lock()
	attempt := p.attempts[from]
	p.attempts[from] = attempt + 1
	p.mu.Unlock()

	// A host whose kill already triggered stays dead: sever at the
	// hello, before any retransmission gets through.
	if p.killEligible(from) && p.plan.Kill.tripped() {
		p.record(Decision{From: from, Attempt: attempt, Frame: -1, Act: ActSever})
		return
	}
	if act := p.plan.Decide(from, attempt, -1); act == ActSever {
		p.record(Decision{From: from, Attempt: attempt, Frame: -1, Act: ActSever})
		return
	}
	if _, err := target.Write(hello); err != nil {
		return
	}
	for frame := 0; ; frame++ {
		buf, err := gluon.ReadFrame(br)
		if err != nil {
			return
		}
		// Kill trigger: pure condition (from ∈ KillHosts, frame past the
		// threshold), stateful persistence via the shared switch — the
		// first link to trigger condemns every link of the dead host.
		if p.killEligible(from) && (frame >= p.plan.KillAtFrame || p.plan.Kill.tripped()) {
			p.plan.Kill.trip()
			p.record(Decision{From: from, Attempt: attempt, Frame: frame, Act: ActSever})
			return
		}
		act := p.plan.Decide(from, attempt, frame)
		if act != ActNone {
			p.record(Decision{From: from, Attempt: attempt, Frame: frame, Act: act})
		}
		switch act {
		case ActDrop:
			continue
		case ActSever:
			return
		case ActDelay:
			time.Sleep(p.plan.delayFor(from, attempt, frame))
		case ActDup:
			if _, err := target.Write(buf); err != nil {
				return
			}
		}
		if _, err := target.Write(buf); err != nil {
			return
		}
	}
}

// killEligible reports whether the plan schedules a kill for frames
// dialed by this host.
func (p *FaultProxy) killEligible(from int) bool {
	for _, h := range p.plan.KillHosts {
		if h == from {
			return true
		}
	}
	return false
}

// ProxySet owns the proxies interposed for one job.
type ProxySet struct {
	Proxies []*FaultProxy
}

// Close stops every proxy in the set.
func (s *ProxySet) Close() {
	for _, p := range s.Proxies {
		if p != nil {
			p.Close()
		}
	}
}

// Logs gathers every proxy's decision log, indexed by guarded host.
func (s *ProxySet) Logs() [][]Decision {
	out := make([][]Decision, len(s.Proxies))
	for h, p := range s.Proxies {
		if p != nil {
			out[h] = p.Log()
		}
	}
	return out
}

// InterposeProxies builds a RunOptions.MapAddrs hook that places a
// fault proxy in front of each host's transport listener; plans[h]
// governs traffic dialed to host h. The returned set is populated when
// the hook runs (after prepare) and exposes the decision logs; the
// hook's closer tears the proxies down when the job finishes.
func InterposeProxies(plans []ProxyPlan) (func(addrs []string) ([]string, func(), error), *ProxySet) {
	set := &ProxySet{}
	hook := func(addrs []string) ([]string, func(), error) {
		if len(plans) != len(addrs) {
			return nil, nil, fmt.Errorf("clusterrun: %d proxy plans for %d hosts", len(plans), len(addrs))
		}
		mapped := make([]string, len(addrs))
		for h, addr := range addrs {
			px, err := NewFaultProxy(addr, plans[h])
			if err != nil {
				set.Close()
				return nil, nil, err
			}
			set.Proxies = append(set.Proxies, px)
			mapped[h] = px.Addr()
		}
		return mapped, set.Close, nil
	}
	return hook, set
}

// SeverPlans builds the per-host plans for a permanent sever of one
// victim: the victim's own proxy cuts everything inbound, and every
// other proxy cuts connections dialed by the victim — full isolation,
// which must surface as a structured fault on every surviving host.
func SeverPlans(hosts, victim int) []ProxyPlan {
	plans := make([]ProxyPlan, hosts)
	for h := range plans {
		if h == victim {
			plans[h] = ProxyPlan{SeverAll: true}
		} else {
			plans[h] = ProxyPlan{SeverHosts: []int{victim}}
		}
	}
	return plans
}

// KillPlans builds the per-host plans for killing one victim once any
// of its links reaches data frame frame: the victim's own proxy kills
// inbound traffic from every other host (so the victim stops hearing
// the cluster) and every survivor's proxy kills traffic dialed by the
// victim. The plans share one KillSwitch, so the first link to trigger
// silences every link at once — the victim dies like a SIGKILLed
// process, not like a flaky cable. Traffic among survivors is
// untouched.
func KillPlans(hosts, victim, frame int) []ProxyPlan {
	sw := &KillSwitch{}
	plans := make([]ProxyPlan, hosts)
	for h := range plans {
		if h == victim {
			others := make([]int, 0, hosts-1)
			for o := 0; o < hosts; o++ {
				if o != victim {
					others = append(others, o)
				}
			}
			plans[h] = ProxyPlan{KillHosts: others, KillAtFrame: frame, Kill: sw}
		} else {
			plans[h] = ProxyPlan{KillHosts: []int{victim}, KillAtFrame: frame, Kill: sw}
		}
	}
	return plans
}

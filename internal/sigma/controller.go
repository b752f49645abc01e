// Package sigma implements SIGMA (Secure Internet Group Management
// Architecture), the paper's generic key-based group access control at edge
// routers (§3.2). The Controller is the edge-router side: it intercepts the
// sender's special key-announce packets, validates the keys receivers
// submit in subscription messages, and gates local-interface forwarding —
// all without knowing anything about the congestion control protocol whose
// keys it checks (Requirement 3). The Announcer is the sender side that
// distributes address-key tuples to edge routers, and the Client is the
// receiver-side stub speaking the Figure 6 messages.
package sigma

import (
	"deltasigma/internal/keys"
	"deltasigma/internal/mcast"
	"deltasigma/internal/packet"
	"deltasigma/internal/sim"
)

// Config carries SIGMA's deployment parameters. Slot timing is part of
// SIGMA itself — the time slot is the atomic unit of access control
// (Figure 2) — and is assumed synchronized between sender and edge routers,
// the same assumption slotted protocols like FLID-DL already make.
type Config struct {
	// SlotDuration is the access-control time slot length.
	SlotDuration sim.Time
	// Epoch is the virtual time slot 0 begins.
	Epoch sim.Time
	// GraceSlots is how many complete slots of unconditional forwarding a
	// newly granted or newly joined group gets (the paper fixes 2).
	GraceSlots int
	// PenaltySlots is the minimum forwarding stop after a keyless
	// session-join grace expires (the paper fixes "at least one").
	PenaltySlots int
}

// DefaultConfig returns the paper's parameters for a given slot duration.
func DefaultConfig(slot sim.Time) Config {
	return Config{SlotDuration: slot, GraceSlots: 2, PenaltySlots: 1}
}

// storedKeys is one group's key tuple for one slot, as learned from a
// KeyAnnounce.
type storedKeys struct {
	top, dec, inc  keys.Key
	hasDec, hasInc bool
}

func (s storedKeys) matches(k keys.Key) bool {
	return k == s.top || (s.hasDec && k == s.dec) || (s.hasInc && k == s.inc)
}

// grant is the per-interface, per-group access state. The slots a valid key
// was presented for live in a 32-slot window bitmask anchored at slotBase:
// keys are only ever granted for the current or upcoming slots and expire
// every tick, so live slot numbers span at most a few slots — a mask makes
// the per-packet Deliver probe bit arithmetic instead of a map access, and
// grants allocate nothing beyond their own struct.
type grant struct {
	slotBase     uint32   // slot number of bit 0 of slotMask
	slotMask     uint32   // bit i set: a valid key was presented for slotBase+i
	graceUntil   sim.Time // unconditional forwarding window
	pendingGrace bool     // start the grace window at first delivery
	probation    bool     // admitted keyless via session-join
	penaltyUntil sim.Time // forwarding stopped until then
}

// setSlot records a valid key presentation for slot s.
func (g *grant) setSlot(s uint32) {
	if g.slotMask == 0 {
		g.slotBase, g.slotMask = s, 1
		return
	}
	if s < g.slotBase {
		d := g.slotBase - s
		if d >= 32 {
			// A grant more than a window behind the anchor; the anchored
			// slots would long since have expired — restart the window.
			g.slotBase, g.slotMask = s, 1
			return
		}
		g.slotMask = g.slotMask<<d | 1
		g.slotBase = s
		return
	}
	d := s - g.slotBase
	if d >= 32 {
		// Slide the window forward. The bits shifted out are ≥32 slots
		// older than the new grant and therefore already expired (expire
		// runs every slot tick).
		shift := d - 31
		g.slotMask >>= shift
		g.slotBase += shift
		d = 31
	}
	g.slotMask |= 1 << d
}

// expireBefore drops every slot older than cur.
func (g *grant) expireBefore(cur uint32) {
	if g.slotMask == 0 || cur <= g.slotBase {
		return
	}
	d := cur - g.slotBase
	if d >= 32 {
		g.slotMask = 0
	} else {
		g.slotMask >>= d
	}
	g.slotBase = cur
}

// hasSlot reports whether a valid key was presented for slot s.
func (g *grant) hasSlot(s uint32) bool {
	return s >= g.slotBase && s-g.slotBase < 32 && g.slotMask>>(s-g.slotBase)&1 == 1
}

// iface is the state of one local interface (one attached receiver host).
type iface struct {
	grants map[packet.Addr]*grant
	// guesses tallies distinct invalid keys per group, the §4.2 guessing-
	// attack indicator.
	guesses map[packet.Addr]*keySet
}

// keySet counts distinct keys exactly. A guessing attacker feeds it a few
// thousand uniform keys per group over a run, so it is a paged bitmap
// rather than a hash set: a page is allocated once, when the first key
// lands in it, and nothing is ever rehashed or copied as the set grows.
// The b = 16 keys of the evaluation fill at most 16 pages (8 KB).
type keySet struct {
	pages map[keys.Key]*keyPage
	n     int
}

// keyPageBits is the width of a page's key range: 4096 keys, 512 bytes.
const keyPageBits = 12

type keyPage [1 << keyPageBits / 64]uint64

// add records k; distinct keys are counted once.
func (s *keySet) add(k keys.Key) {
	pg := s.pages[k>>keyPageBits]
	if pg == nil {
		if s.pages == nil {
			s.pages = make(map[keys.Key]*keyPage)
		}
		pg = new(keyPage)
		s.pages[k>>keyPageBits] = pg
	}
	i := k & (1<<keyPageBits - 1) // position within the page
	word, bit := &pg[i>>6], uint64(1)<<(i&63)
	if *word&bit == 0 {
		*word |= bit
		s.n++
	}
}

// Controller is the SIGMA gatekeeper installed on an edge router. It
// implements mcast.Gatekeeper.
type Controller struct {
	router *mcast.Router
	sched  *sim.Scheduler
	cfg    Config

	store      map[packet.Addr]map[uint32]storedKeys
	ifaces     map[packet.Addr]*iface
	grafted    map[packet.Addr]bool
	seen       map[announceID]bool  // announce dedup, pruned with store
	tickTimer  *sim.Timer           // reusable per-slot housekeeping timer
	inUse      map[packet.Addr]bool // tick scratch, cleared and reused each slot
	freeGrants sim.Freelist[grant]  // revoked grants awaiting reuse

	// alter, when non-nil, applies §4.2 interface keying; see keying.go.
	alter *InterfaceKeying
	// scrubSrc, when non-nil, scrubs components of CE-marked packets on
	// local delivery (ECN-driven protocols); see transform.go.
	scrubSrc *keys.Source

	// Stats.
	AnnouncesIntercepted uint64
	SubscribesProcessed  uint64
	GrantsIssued         uint64
	InvalidKeys          uint64
	Acked                uint64
}

// announceID names one logical key announcement: repetition copies share it.
type announceID struct {
	session uint16
	slot    uint32
}

// NewController installs a SIGMA controller as the gatekeeper of router.
func NewController(router *mcast.Router, cfg Config) *Controller {
	if cfg.SlotDuration <= 0 {
		panic("sigma: non-positive slot duration")
	}
	if cfg.GraceSlots <= 0 {
		cfg.GraceSlots = 2
	}
	if cfg.PenaltySlots <= 0 {
		cfg.PenaltySlots = 1
	}
	c := &Controller{
		router:  router,
		sched:   router.Network().Scheduler(),
		cfg:     cfg,
		store:   make(map[packet.Addr]map[uint32]storedKeys),
		ifaces:  make(map[packet.Addr]*iface),
		grafted: make(map[packet.Addr]bool),
		seen:    make(map[announceID]bool),
	}
	router.SetGatekeeper(c)
	c.tickTimer = c.sched.NewTimer(c.onTick)
	c.tickTimer.Reset(c.cfg.SlotDuration)
	return c
}

// Router returns the edge router this controller guards.
func (c *Controller) Router() *mcast.Router { return c.router }

// CurrentSlot returns the slot number at the controller's clock.
func (c *Controller) CurrentSlot() uint32 {
	now := c.sched.Now()
	if now < c.cfg.Epoch {
		return 0
	}
	return uint32((now - c.cfg.Epoch) / c.cfg.SlotDuration)
}

// graceDeadline returns the end of the grace window opening now: the
// remainder of the current slot plus GraceSlots *complete* time slots
// (§3.2.2: "forwards them to the interface unconditionally for two complete
// time slots").
func (c *Controller) graceDeadline() sim.Time {
	nextBoundary := c.cfg.Epoch + sim.Time(c.CurrentSlot()+1)*c.cfg.SlotDuration
	return nextBoundary + sim.Time(c.cfg.GraceSlots)*c.cfg.SlotDuration
}

// onTick fires once per slot on the reusable housekeeping timer.
func (c *Controller) onTick() {
	c.tick()
	c.tickTimer.Reset(c.cfg.SlotDuration)
}

// tick runs once per slot: garbage-collects stale state and prunes groups
// no local interface is entitled to anymore.
func (c *Controller) tick() {
	cur := c.CurrentSlot()
	now := c.sched.Now()

	// Drop stored keys older than the previous slot, and with them the
	// dedup entries of their announcements: Intercept turns a copy that
	// late away before it consults the dedup set.
	for group, slots := range c.store {
		for s := range slots {
			if s+1 < cur {
				delete(slots, s)
			}
		}
		if len(slots) == 0 {
			delete(c.store, group)
		}
	}
	for id := range c.seen {
		if id.slot+1 < cur {
			delete(c.seen, id)
		}
	}

	// Expire grants and decide prunes.
	if c.inUse == nil {
		c.inUse = make(map[packet.Addr]bool)
	}
	clear(c.inUse)
	inUse := c.inUse
	for _, ifc := range c.ifaces {
		for group, g := range ifc.grants {
			g.expireBefore(cur)
			if g.probation && g.graceUntil <= now && g.graceUntil != 0 {
				// Keyless session-join grace expired: stop forwarding for
				// at least PenaltySlots (§3.2.2).
				g.probation = false
				g.graceUntil = 0
				g.penaltyUntil = now + sim.Time(c.cfg.PenaltySlots)*c.cfg.SlotDuration
			}
			active := g.graceUntil > now || g.pendingGrace || g.slotMask != 0
			if active {
				inUse[group] = true
			} else if g.penaltyUntil <= now {
				c.revoke(ifc, group)
			}
		}
		for group := range ifc.guesses {
			// Guess tallies are the attack indicator; retain them for as
			// long as the session's keys are live.
			if _, live := c.store[group]; !live {
				delete(ifc.guesses, group)
			}
		}
	}
	for group := range c.grafted {
		if !inUse[group] {
			c.router.Prune(group)
			delete(c.grafted, group)
		}
	}
	if c.alter != nil {
		c.alter.gc(cur)
	}
}

func (c *Controller) ifaceFor(host packet.Addr) *iface {
	ifc := c.ifaces[host]
	if ifc == nil {
		ifc = &iface{
			grants:  make(map[packet.Addr]*grant),
			guesses: make(map[packet.Addr]*keySet),
		}
		c.ifaces[host] = ifc
	}
	return ifc
}

func (c *Controller) grantFor(ifc *iface, group packet.Addr) *grant {
	g := ifc.grants[group]
	if g == nil {
		g = c.freeGrants.Get()
		*g = grant{}
		ifc.grants[group] = g
	}
	return g
}

// revoke removes the interface's grant for group, if any, and keeps the
// struct for the next grantFor: a forged unsubscribe tears a victim's
// grants down every slot and the victim's next subscription restores them.
func (c *Controller) revoke(ifc *iface, group packet.Addr) {
	if g := ifc.grants[group]; g != nil {
		delete(ifc.grants, group)
		c.freeGrants.Put(g)
	}
}

func (c *Controller) ensureGraft(group packet.Addr) {
	if !c.grafted[group] {
		c.grafted[group] = true
		c.router.Graft(group)
	}
}

// Intercept implements mcast.Gatekeeper: store the address-key tuples from
// a SIGMA special packet. Repetition-coded duplicates are idempotent.
func (c *Controller) Intercept(pkt *packet.Packet) {
	ann, ok := pkt.Header.(*packet.KeyAnnounce)
	if !ok {
		return
	}
	if ann.Slot+1 < c.CurrentSlot() {
		return // stale: nothing to store, and its dedup entry is pruned
	}
	// Repetition copies carry identical content; one logical announce per
	// (session, slot) suffices.
	id := announceID{session: ann.Session, slot: ann.Slot}
	if c.seen[id] {
		return
	}
	c.seen[id] = true
	c.AnnouncesIntercepted++
	for _, t := range ann.Tuples {
		slots := c.store[t.Addr]
		if slots == nil {
			slots = make(map[uint32]storedKeys)
			c.store[t.Addr] = slots
		}
		slots[ann.Slot] = storedKeys{
			top: t.Top, dec: t.Dec, inc: t.Inc,
			hasDec: t.HasDec, hasInc: t.HasInc,
		}
	}
}

// HasKeysFor reports whether the controller holds keys for group at slot
// (test observability).
func (c *Controller) HasKeysFor(group packet.Addr, slot uint32) bool {
	_, ok := c.store[group][slot]
	return ok
}

// Control implements mcast.Gatekeeper: dispatch Figure 6 messages.
func (c *Controller) Control(pkt *packet.Packet, from packet.Addr) {
	if _, local := c.router.Locals()[from]; !local {
		return
	}
	hdr, ok := pkt.Header.(*packet.SigmaHeader)
	if !ok {
		return // plain IGMP join at a SIGMA router confers nothing
	}
	switch hdr.Kind {
	case packet.SigmaSessionJoin:
		c.sessionJoin(from, hdr)
	case packet.SigmaSubscribe:
		c.subscribe(from, hdr)
	case packet.SigmaUnsubscribe:
		c.unsubscribe(from, hdr)
	}
}

// sessionJoin admits a new receiver keylessly into the minimal group for
// GraceSlots complete slots (§3.2.2).
func (c *Controller) sessionJoin(from packet.Addr, hdr *packet.SigmaHeader) {
	if !hdr.Minimal.IsMulticast() {
		return
	}
	ifc := c.ifaceFor(from)
	g := c.grantFor(ifc, hdr.Minimal)
	now := c.sched.Now()
	if now < g.penaltyUntil {
		return // abusers wait the penalty out
	}
	if g.graceUntil > now || g.slotMask != 0 {
		return // already admitted; do not extend
	}
	g.probation = true
	g.pendingGrace = false
	g.graceUntil = c.graceDeadline()
	c.ensureGraft(hdr.Minimal)
}

// subscribe validates each address-key pair against the announced keys for
// the message's slot and grants matching groups (§3.2.2).
func (c *Controller) subscribe(from packet.Addr, hdr *packet.SigmaHeader) {
	c.SubscribesProcessed++
	ifc := c.ifaceFor(from)
	cur := c.CurrentSlot()
	if hdr.Slot >= cur {
		for _, pair := range hdr.Pairs {
			stored, ok := c.store[pair.Addr][hdr.Slot]
			if !ok {
				continue // keys not announced (yet); receiver retries
			}
			key := pair.Key
			valid := stored.matches(key)
			if c.alter != nil {
				valid = c.alter.Validate(from, pair.Addr, hdr.Slot, key, stored)
			}
			if !valid {
				c.InvalidKeys++
				tally := ifc.guesses[pair.Addr]
				if tally == nil {
					tally = &keySet{}
					ifc.guesses[pair.Addr] = tally
				}
				tally.add(key)
				continue
			}
			g := c.grantFor(ifc, pair.Addr)
			if c.sched.Now() < g.penaltyUntil {
				continue
			}
			hadAccess := g.slotMask != 0 || g.graceUntil > c.sched.Now() || g.pendingGrace
			g.setSlot(hdr.Slot)
			g.probation = false
			if !hadAccess {
				// Newly granted group: once its packets start arriving,
				// forward unconditionally for GraceSlots complete slots —
				// the receiver cannot yet hold keys for the first slots it
				// never observed (§3.2.2 "expecting the group").
				g.pendingGrace = true
			}
			c.GrantsIssued++
			c.ensureGraft(pair.Addr)
		}
	}
	// Acknowledge the subscription message (reliable subscription).
	net := c.router.Network()
	ack := net.Pool().SigmaHeader()
	ack.Kind, ack.Slot, ack.AckID = packet.SigmaAck, hdr.Slot, hdr.AckID
	c.Acked++
	c.router.SendLocal(net.NewPacket(c.router.Addr(), from, 0, ack))
}

// unsubscribe revokes the sender's own grants; other interfaces subscribed
// to the same groups are unaffected (§3.2.2).
func (c *Controller) unsubscribe(from packet.Addr, hdr *packet.SigmaHeader) {
	ifc := c.ifaceFor(from)
	for _, addr := range hdr.Addrs {
		c.revoke(ifc, addr)
	}
	// Prune any group nobody is entitled to anymore.
	for _, addr := range hdr.Addrs {
		stillUsed := false
		for _, other := range c.ifaces {
			if g := other.grants[addr]; g != nil {
				if g.graceUntil > c.sched.Now() || g.pendingGrace || g.slotMask != 0 {
					stillUsed = true
					break
				}
			}
		}
		if !stillUsed && c.grafted[addr] {
			c.router.Prune(addr)
			delete(c.grafted, addr)
		}
	}
}

// Deliver implements mcast.Gatekeeper: the per-packet forwarding decision.
func (c *Controller) Deliver(group, host packet.Addr) bool {
	ifc := c.ifaces[host]
	if ifc == nil {
		return false
	}
	g := ifc.grants[group]
	if g == nil {
		return false
	}
	now := c.sched.Now()
	if now < g.penaltyUntil {
		return false
	}
	if g.pendingGrace {
		g.pendingGrace = false
		g.graceUntil = c.graceDeadline()
	}
	if now < g.graceUntil {
		return true
	}
	return g.hasSlot(c.CurrentSlot())
}

// Entitled implements mcast.EntitlementReader: the same decision Deliver
// would make right now, but side-effect-free — a pending grace window is
// reported as entitlement without being armed, so the audit layer can poll
// mid-run without perturbing grace accounting.
func (c *Controller) Entitled(group, host packet.Addr) bool {
	ifc := c.ifaces[host]
	if ifc == nil {
		return false
	}
	g := ifc.grants[group]
	if g == nil {
		return false
	}
	now := c.sched.Now()
	if now < g.penaltyUntil {
		return false
	}
	if g.pendingGrace || now < g.graceUntil {
		return true
	}
	return g.hasSlot(c.CurrentSlot())
}

// GuessCount reports how many distinct invalid keys host has submitted for
// group — the §4.2 guessing-attack tally.
func (c *Controller) GuessCount(group, host packet.Addr) int {
	ifc := c.ifaces[host]
	if ifc == nil {
		return 0
	}
	if tally := ifc.guesses[group]; tally != nil {
		return tally.n
	}
	return 0
}

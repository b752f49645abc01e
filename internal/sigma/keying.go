package sigma

import (
	"deltasigma/internal/keys"
	"deltasigma/internal/packet"
)

// InterfaceKeying implements the §4.2 collusion hardening: the edge router
// randomly alters the component fields it forwards onto each local
// interface, so every interface reconstructs a different ("lower") key.
// Validation then demands the interface-specific lower key; keys passed
// between colluding receivers on different interfaces stop working.
//
// As the paper concedes, this extension is protocol-specific — the edge
// must know the session's layered structure (group addresses and their
// cumulative order) to relate altered components to submitted keys — and
// therefore "sacrifices the generality of SIGMA". It is provided as an
// optional mode for the layered instantiation.
type InterfaceKeying struct {
	src  *keys.Source
	base packet.Addr
	n    int
	// alt[iface][slot][g-1] is the cumulative XOR of alterations applied
	// to group g's components forwarded to iface during slot.
	alt map[packet.Addr]map[uint32][]keys.Key
}

// NewInterfaceKeying builds the alteration state for a layered session with
// n groups based at base, drawing alteration nonces from src.
func NewInterfaceKeying(base packet.Addr, n int, src *keys.Source) *InterfaceKeying {
	return &InterfaceKeying{
		src:  src,
		base: base,
		n:    n,
		alt:  make(map[packet.Addr]map[uint32][]keys.Key),
	}
}

func (ik *InterfaceKeying) groupIndex(addr packet.Addr) int {
	if addr < ik.base || addr >= ik.base+packet.Addr(ik.n) {
		return 0
	}
	return int(addr-ik.base) + 1
}

func (ik *InterfaceKeying) slotAlt(host packet.Addr, slot uint32) []keys.Key {
	slots := ik.alt[host]
	if slots == nil {
		slots = make(map[uint32][]keys.Key)
		ik.alt[host] = slots
	}
	a := slots[slot]
	if a == nil {
		a = make([]keys.Key, ik.n)
		slots[slot] = a
	}
	return a
}

// Alter rewrites the component of a layered data packet bound for host and
// records the perturbation. The returned header is a copy.
func (ik *InterfaceKeying) Alter(host packet.Addr, h *packet.FLIDHeader) *packet.FLIDHeader {
	g := int(h.Group)
	if g < 1 || g > ik.n {
		return h
	}
	x := ik.src.Nonce()
	a := ik.slotAlt(host, h.Slot)
	a[g-1] = keys.XOR(a[g-1], x)
	c := *h
	c.Component = keys.XOR(c.Component, x)
	return &c
}

// cum returns the cumulative alteration ⊕_{j≤g} A_j for the interface.
func (ik *InterfaceKeying) cum(host packet.Addr, slot uint32, g int) keys.Key {
	a := ik.alt[host][slot]
	if a == nil {
		return 0
	}
	var acc keys.Key
	for j := 0; j < g && j < len(a); j++ {
		acc = keys.XOR(acc, a[j])
	}
	return acc
}

// Validate checks a submitted key against the announced ("upper") keys,
// adjusted by the interface's recorded alterations: the lower top key is
// α_g ⊕ cum(g), the lower increase key is ε_g ⊕ cum(g−1), and decrease keys
// travel in decrease fields that the edge never alters.
func (ik *InterfaceKeying) Validate(host, group packet.Addr, slot uint32, submitted keys.Key, stored storedKeys) bool {
	g := ik.groupIndex(group)
	if g == 0 {
		return stored.matches(submitted)
	}
	if submitted == keys.XOR(stored.top, ik.cum(host, slot, g)) {
		return true
	}
	if stored.hasDec && submitted == stored.dec {
		return true
	}
	if stored.hasInc && submitted == keys.XOR(stored.inc, ik.cum(host, slot, g-1)) {
		return true
	}
	return false
}

// gc drops alteration state older than slot.
func (ik *InterfaceKeying) gc(olderThan uint32) {
	// order-insensitive: deletes every stale slot
	for _, slots := range ik.alt {
		// order-insensitive: deletes every stale slot
		for s := range slots {
			if s+1 < olderThan {
				delete(slots, s)
			}
		}
	}
}

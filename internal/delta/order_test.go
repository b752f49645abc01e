package delta

import (
	"slices"
	"testing"

	"deltasigma/internal/keys"
)

// pinnedFields is the (component, decrease) stream of two slots of a
// four-group sender keyed by newSource(27), with counts {3, 1, 2, 4} and
// upgrades to groups 2 and 4 authorized, listed in (group, seq) order. It
// was recorded from the sender that drew each nonce as its packet's header
// was built. The layered and replicated senders draw their nonces in the
// same order — secret, then decrease key, per group, then the components —
// so one table pins both.
var pinnedFields = [2][]struct {
	group     int
	component keys.Key
	decrease  keys.Key
}{
	{
		{1, 0x8ad8, 0x0000}, {1, 0x7ec2, 0x0000}, {1, 0x1166, 0x0000},
		{2, 0x90fd, 0xed55},
		{3, 0x41ad, 0xdc3b}, {3, 0x085c, 0xdc3b},
		{4, 0xe03f, 0xf7d1}, {4, 0x96a1, 0xf7d1}, {4, 0xa868, 0xf7d1}, {4, 0xfe7a, 0xf7d1},
	},
	{
		{1, 0x1f10, 0x0000}, {1, 0x6770, 0x0000}, {1, 0x1fd0, 0x0000},
		{2, 0xa8a1, 0xb458},
		{3, 0x74f8, 0x72f7}, {3, 0xe70e, 0x72f7},
		{4, 0x425a, 0x41b2}, {4, 0x29e9, 0x41b2}, {4, 0xcdd6, 0x41b2}, {4, 0xfa95, 0x41b2},
	},
}

// A slotted sender asks for a slot's fields at send time, with the groups'
// packets interleaved. The XOR senders draw the whole slot's nonces at
// BeginSlot, so the stream — and with it every key — is the pinned one
// whether Fields is called group by group or round-robin across groups,
// and each group's components XOR to its secret.
func TestComponentStreamPinned(t *testing.T) {
	auth := []bool{false, true, false, true}
	counts := []int{3, 1, 2, 4}
	orders := map[string]func() []int{
		"group-major": func() []int {
			var gs []int
			for g, c := range counts {
				for range c {
					gs = append(gs, g+1)
				}
			}
			return gs
		},
		"round-robin": func() []int {
			var gs []int
			for p := range slices.Max(counts) {
				for g, c := range counts {
					if p < c {
						gs = append(gs, g+1)
					}
				}
			}
			return gs
		},
	}
	type slotFn func(slot uint32) (*LayeredSlot, func(g int) keys.Key)
	senders := map[string]func() slotFn{
		"layered": func() slotFn {
			s := NewLayeredSender(len(counts), newSource(27))
			return func(slot uint32) (*LayeredSlot, func(int) keys.Key) {
				ls := s.BeginSlot(slot, auth, counts)
				return ls, func(g int) keys.Key {
					if g == 1 {
						return ls.Keys.Top[0]
					}
					return keys.XOR(ls.Keys.Top[g-1], ls.Keys.Top[g-2])
				}
			}
		},
		"replicated": func() slotFn {
			s := newFigure5Sender(len(counts), newSource(27))
			return func(slot uint32) (*LayeredSlot, func(int) keys.Key) {
				rs := s.BeginSlot(slot, auth, counts)
				return rs, func(g int) keys.Key { return rs.Keys.Top[g-1] }
			}
		},
	}
	for sname, build := range senders {
		for oname, order := range orders {
			begin := build()
			for i, want := range pinnedFields {
				cs, secret := begin(uint32(10 + i))
				got := make(map[int][][2]keys.Key)
				for _, g := range order() {
					c, d := cs.Fields(g)
					got[g] = append(got[g], [2]keys.Key{c, d})
				}
				if !cs.Done() {
					t.Fatalf("%s/%s slot %d: not done after every scheduled packet", sname, oname, i)
				}
				seq := make(map[int]int)
				xor := make(map[int]keys.Key)
				for _, w := range want {
					p := got[w.group][seq[w.group]]
					seq[w.group]++
					if p != [2]keys.Key{w.component, w.decrease} {
						t.Errorf("%s/%s slot %d group %d seq %d: fields %#04x/%#04x, pinned %#04x/%#04x",
							sname, oname, i, w.group, seq[w.group], uint64(p[0]), uint64(p[1]), uint64(w.component), uint64(w.decrease))
					}
					xor[w.group] = keys.XOR(xor[w.group], p[0])
				}
				for g := 1; g <= len(counts); g++ {
					if xor[g] != secret(g) {
						t.Errorf("%s/%s slot %d group %d: components XOR to %#x, secret is %#x", sname, oname, i, g, xor[g], secret(g))
					}
				}
			}
		}
	}
}

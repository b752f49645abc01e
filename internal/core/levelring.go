package core

// LevelRing is a key receiver's level-by-slot history: the subscription
// level (a replicated receiver's group) in force from each recently decided
// data slot on. A receiver records its start slot and every evaluation
// records the decision for the access slot it guards, so the level during a
// slot is the most recent record at or before it.
//
// Entries are tagged with slot+1 (0 is empty) and lookups compare the exact
// slot, so a stale entry never answers for another slot. A record stays
// live from two slots ahead of the evaluated slot to eight behind it — eleven
// slots, inside the sixteen entries.
type LevelRing struct {
	tag [levelRingW]uint32
	val [levelRingW]int32
}

const levelRingW = 16 // power of two

// Set records lvl as in force from data slot slot on.
func (r *LevelRing) Set(slot uint32, lvl int) {
	i := slot & (levelRingW - 1)
	r.tag[i], r.val[i] = slot+1, int32(lvl)
}

// Forget drops records more than eight slots older than slot, the slot being
// evaluated, so At falls back to the latest level rather than to a decision
// that stale.
func (r *LevelRing) Forget(slot uint32) {
	for i, t := range r.tag {
		if t != 0 && t-1+8 < slot {
			r.tag[i] = 0
		}
	}
}

// At returns the level in force during slot: the most recent record at or
// before it within sixteen slots, else latest — the receiver's current
// level. A running receiver never reaches the fallback at slot 0: its start
// slot is on record.
func (r *LevelRing) At(slot uint32, latest int) int {
	for s := slot; ; s-- {
		if i := s & (levelRingW - 1); r.tag[i] == s+1 {
			return int(r.val[i])
		}
		if s == 0 || slot-s > 16 {
			return latest
		}
	}
}

package stream

// KeyTable maps string keys to values of type V, indexed by the caller's
// KeyHash of each key. It replaces a map[string]V on per-event paths
// that already hold the hash or need it once for several operations: a
// lookup hashes nothing, and a miss followed by an insert probes with
// the same hash.
//
// The layout is an open-addressed array of a power-of-two size with
// linear probing, grown at a load of 3/4, and backward-shift deletion,
// so no tombstones lengthen later probes. Two keys are equal only when
// their bytes are; a matching hash only filters. Iteration order is
// unspecified: callers that expose an order sort or keep their own.
//
// The zero KeyTable is empty and ready to use. A KeyTable is not safe
// for concurrent use.
type KeyTable[V any] struct {
	slots []keySlot[V]
	n     int
}

// keySlot is one table entry. hash is the key's KeyHash with the top bit
// set, so 0 marks an empty slot; the probe start uses the low bits only.
type keySlot[V any] struct {
	hash uint64
	key  string
	val  V
}

const slotUsed = 1 << 63

// Len returns the number of keys in the table.
func (t *KeyTable[V]) Len() int { return t.n }

// find returns key's slot, or nil when the key is absent.
func (t *KeyTable[V]) find(hash uint64, key string) *keySlot[V] {
	if t.n == 0 {
		return nil
	}
	mask := uint64(len(t.slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.hash == 0 {
			return nil
		}
		if s.hash == hash|slotUsed && s.key == key {
			return s
		}
	}
}

// Get returns the value stored under key, which must hash to hash.
func (t *KeyTable[V]) Get(hash uint64, key string) (v V, ok bool) {
	if s := t.find(hash, key); s != nil {
		return s.val, true
	}
	return v, false
}

// Key returns the table's own copy of key, so a caller may look up with
// a transient string (a view of a reused buffer) and keep the stored one.
func (t *KeyTable[V]) Key(hash uint64, key string) (string, bool) {
	if s := t.find(hash, key); s != nil {
		return s.key, true
	}
	return "", false
}

// Put stores v under key, which must hash to hash, replacing any value
// the key held. The table keeps key itself: it must not be a view of a
// buffer the caller reuses.
func (t *KeyTable[V]) Put(hash uint64, key string, v V) {
	if s := t.find(hash, key); s != nil {
		s.val = v
		return
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	t.insert(keySlot[V]{hash: hash | slotUsed, key: key, val: v})
	t.n++
}

// insert places an entry known to be absent at the end of its probe run.
func (t *KeyTable[V]) insert(s keySlot[V]) {
	mask := uint64(len(t.slots) - 1)
	i := s.hash & mask
	for t.slots[i].hash != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

func (t *KeyTable[V]) grow() {
	old := t.slots
	t.slots = make([]keySlot[V], max(8, 2*len(old)))
	for i := range old {
		if old[i].hash != 0 {
			t.insert(old[i])
		}
	}
}

// Delete removes key, which must hash to hash, and reports whether it
// was present. Every later entry of the probe run whose home slot lies
// at or before the hole moves back into it, so each key stays reachable
// from its home slot without tombstones.
func (t *KeyTable[V]) Delete(hash uint64, key string) bool {
	s := t.find(hash, key)
	if s == nil {
		return false
	}
	mask := len(t.slots) - 1
	hole := int(hash) & mask
	for &t.slots[hole] != s {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j].hash != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole unless its home lies in the
		// cyclic range (hole, j]: then the hole precedes its probe start.
		home := int(t.slots[j].hash) & mask
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = keySlot[V]{}
	t.n--
	return true
}

// Range calls f for each key and value until f returns false. The order
// is unspecified, and f must not add or delete keys.
func (t *KeyTable[V]) Range(f func(key string, v V) bool) {
	for i := range t.slots {
		if s := &t.slots[i]; s.hash != 0 && !f(s.key, s.val) {
			return
		}
	}
}

package profile

import "math/bits"

// table is an open-addressed uint32 → uint32 hash map with linear
// probing: the per-structure state of Analyze. Go maps cost several
// operations per lookup and made up most of Analyze's time; a slot here
// is one 8-byte load.
//
// Key 0 marks an empty slot, so the entry for key 0 lives outside the
// slot array. Values are unrestricted.
type table struct {
	slots   []slot // power-of-two length once the first key is stored
	shift   uint32 // 32 - log2(len(slots))
	n       int    // keys held in slots
	zero    uint32 // value of key 0
	hasZero bool
}

type slot struct{ key, val uint32 }

// minSlots is the slot count of a table's first allocation.
const minSlots = 16

// len returns the number of keys in the table.
func (t *table) len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// ref returns a pointer to key's value, inserting key with value 0 when
// it is absent, and whether key was present. The pointer is valid until
// the next call that inserts a key.
func (t *table) ref(key uint32) (*uint32, bool) {
	if key == 0 {
		found := t.hasZero
		t.hasZero = true
		return &t.zero, found
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return &s.val, true
		}
		if s.key == 0 {
			s.key = key
			t.n++
			return &s.val, false
		}
	}
}

// each calls f for every key and value, in no particular order.
func (t *table) each(f func(key, val uint32)) {
	if t.hasZero {
		f(0, t.zero)
	}
	for _, s := range t.slots {
		if s.key != 0 {
			f(s.key, s.val)
		}
	}
}

// grow doubles the slot array (or allocates the first one) and
// reinserts every key.
func (t *table) grow() {
	old := t.slots
	t.slots = make([]slot, max(minSlots, 2*len(old)))
	t.shift = 32 - uint32(bits.TrailingZeros(uint(len(t.slots))))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// home is key's first probe slot: Fibonacci hashing. It takes the high
// bits of the product, which depend on every bit of the key; the low
// bits see only the key's low bits, which aligned addresses share.
func (t *table) home(key uint32) uint32 {
	return key * 0x9E3779B9 >> t.shift
}

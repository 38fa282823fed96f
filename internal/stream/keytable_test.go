package stream

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// TestKeyTable runs random Put/Get/Delete/Range sequences against a Go
// map. Besides KeyHash it drives two forced-collision hashes: one maps
// every key to one of four home slots, the other puts every home at the
// end of the array, so probe runs wrap around and deletes shift entries
// back across the wrap.
func TestKeyTable(t *testing.T) {
	hashes := map[string]func(string) uint64{
		"keyhash": KeyHash,
		"four":    func(k string) uint64 { return KeyHash(k) % 4 },
		"wrap":    func(k string) uint64 { return ^uint64(0) - KeyHash(k)%3 },
	}
	for name, hash := range hashes {
		for seed := uint64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				r := rand.New(rand.NewPCG(seed, 0x6b74))
				universe := 4 + r.IntN(200)
				var tab KeyTable[int]
				oracle := map[string]int{}
				for op := 0; op < 2000; op++ {
					k := fmt.Sprintf("k%d", r.IntN(universe))
					h := hash(k)
					switch r.IntN(8) {
					case 0, 1, 2:
						tab.Put(h, k, op)
						oracle[k] = op
					case 3, 4:
						_, want := oracle[k]
						if got := tab.Delete(h, k); got != want {
							t.Fatalf("op %d: Delete(%q) = %v, want %v", op, k, got, want)
						}
						delete(oracle, k)
					case 5, 6:
						v, ok := tab.Get(h, k)
						wv, wok := oracle[k]
						if ok != wok || v != wv {
							t.Fatalf("op %d: Get(%q) = %d, %v, want %d, %v", op, k, v, ok, wv, wok)
						}
						s, ok := tab.Key(h, string([]byte(k)))
						if ok != wok || (ok && s != k) {
							t.Fatalf("op %d: Key(%q) = %q, %v", op, k, s, ok)
						}
					case 7:
						checkTable(t, &tab, oracle, hash)
					}
				}
				checkTable(t, &tab, oracle, hash)
				for k := range oracle {
					if !tab.Delete(hash(k), k) {
						t.Fatalf("Delete(%q) of a live key reported absent", k)
					}
				}
				if tab.Len() != 0 {
					t.Fatalf("Len %d after deleting every key", tab.Len())
				}
				checkTable(t, &tab, map[string]int{}, hash)
			})
		}
	}
}

// checkTable compares the whole table with the oracle: Len, a full
// Range, a Get of every live key, and a miss for keys that share a hash
// with a live key but not its bytes.
func checkTable(t *testing.T, tab *KeyTable[int], oracle map[string]int, hash func(string) uint64) {
	t.Helper()
	if tab.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(oracle))
	}
	var seen []string
	tab.Range(func(k string, v int) bool {
		if want, ok := oracle[k]; !ok || v != want {
			t.Fatalf("Range yielded %q = %d, oracle has %d, %v", k, v, want, ok)
		}
		seen = append(seen, k)
		return true
	})
	if len(seen) != len(oracle) {
		t.Fatalf("Range yielded %d keys, want %d", len(seen), len(oracle))
	}
	sort.Strings(seen)
	for i := 1; i < len(seen); i++ {
		if seen[i] == seen[i-1] {
			t.Fatalf("Range yielded %q twice", seen[i])
		}
	}
	for k, want := range oracle {
		if v, ok := tab.Get(hash(k), k); !ok || v != want {
			t.Fatalf("Get(%q) = %d, %v, want %d", k, v, ok, want)
		}
		if _, ok := tab.Get(hash(k), k+"\x00"); ok {
			t.Fatalf("Get(%q) with the hash of %q found a key", k+"\x00", k)
		}
	}
	stopped := 0
	tab.Range(func(string, int) bool { stopped++; return false })
	if want := min(1, len(oracle)); stopped != want {
		t.Fatalf("Range made %d calls after f returned false, want %d", stopped, want)
	}
}

func TestKeyTableZeroValue(t *testing.T) {
	var tab KeyTable[*int]
	if v, ok := tab.Get(KeyHash("a"), "a"); ok || v != nil {
		t.Fatalf("empty table Get = %v, %v", v, ok)
	}
	if tab.Delete(KeyHash("a"), "a") {
		t.Fatal("empty table Delete reported a key")
	}
	tab.Range(func(string, *int) bool { t.Fatal("empty table Range called f"); return true })
	x := 1
	tab.Put(KeyHash(""), "", &x)
	if v, ok := tab.Get(KeyHash(""), ""); !ok || v != &x {
		t.Fatalf("empty key: Get = %v, %v", v, ok)
	}
}

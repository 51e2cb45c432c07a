package rescache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func key(s string) Key {
	var fp [32]byte
	copy(fp[:], s)
	return NewKey(fp)
}

func TestNewKeyFieldFraming(t *testing.T) {
	var fp [32]byte
	if NewKey(fp, "ab", "c") == NewKey(fp, "a", "bc") {
		t.Error("field concatenation collides — framing missing")
	}
	if NewKey(fp, "a") == NewKey(fp, "a", "") {
		t.Error("trailing empty field does not change the key")
	}
	if NewKey(fp, "a", "b") != NewKey(fp, "a", "b") {
		t.Error("key derivation not deterministic")
	}
	fp2 := fp
	fp2[0] = 1
	if NewKey(fp, "a") == NewKey(fp2, "a") {
		t.Error("fingerprint change does not change the key")
	}
}

func TestGetPutRoundtrip(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get(key("k1")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key("k1"), []byte("payload-1"))
	v, ok := c.Get(key("k1"))
	if !ok || !bytes.Equal(v, []byte("payload-1")) {
		t.Fatalf("roundtrip got %q, %v", v, ok)
	}
	// Same-key Put refreshes the value.
	c.Put(key("k1"), []byte("payload-2"))
	if v, _ := c.Get(key("k1")); !bytes.Equal(v, []byte("payload-2")) {
		t.Errorf("refresh kept old value %q", v)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.Bytes != int64(len("payload-2")) {
		t.Errorf("bytes %d after refresh, want %d", st.Bytes, len("payload-2"))
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// Room for exactly three 10-byte values.
	c := New(30)
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d", i)) }
	for i := 0; i < 3; i++ {
		c.Put(key(fmt.Sprintf("k%d", i)), val(i))
	}
	// Touch k0 so k1 becomes least recently used.
	if _, ok := c.Get(key("k0")); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put(key("k3"), val(3))
	if _, ok := c.Get(key("k1")); ok {
		t.Error("LRU entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(key(k)); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	st := c.Stats()
	if st.Bytes != 30 || st.Entries != 3 {
		t.Errorf("stats %+v", st)
	}
}

func TestOversizedValueDropped(t *testing.T) {
	c := New(8)
	c.Put(key("big"), make([]byte, 9))
	if _, ok := c.Get(key("big")); ok {
		t.Error("value larger than the cache was stored")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats %+v after oversized put", st)
	}
}

func TestNilCacheContract(t *testing.T) {
	var c *Cache
	c.Put(key("k"), []byte("v"))
	if _, ok := c.Get(key("k")); ok {
		t.Error("nil cache returned a hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats %+v", st)
	}
	if New(0) != nil || New(-1) != nil {
		t.Error("non-positive bound did not return the disabled (nil) cache")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("k%d", (g+i)%16))
				c.Put(k, []byte(fmt.Sprintf("v%d", i)))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 1<<10 {
		t.Errorf("byte bound violated: %d", st.Bytes)
	}
	if st.Entries > 16 {
		t.Errorf("%d entries from 16 distinct keys", st.Entries)
	}
}

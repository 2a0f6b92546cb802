package lruow

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	v1 := s.Put("k", []byte("one"))
	got, ver, ok := s.Get("k")
	if !ok || !bytes.Equal(got, []byte("one")) || ver != v1 {
		t.Fatalf("got %q ver %d ok %v", got, ver, ok)
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestStoreVersionsIncrease(t *testing.T) {
	s := NewStore()
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		v := s.Put("k", []byte{byte(i)})
		if v <= prev {
			t.Fatalf("version %d not > %d", v, prev)
		}
		prev = v
	}
	other := s.Put("other", nil)
	if other <= prev {
		t.Fatal("global version not monotonic across keys")
	}
	if s.Version("other") != other || s.Version("missing") != 0 {
		t.Fatalf("Version = %d/%d", s.Version("other"), s.Version("missing"))
	}
}

func TestStoreGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("abc"))
	got, _, _ := s.Get("k")
	got[0] = 'Z'
	again, _, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatalf("store mutated through returned slice: %q", again)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", id)
			for i := 0; i < 200; i++ {
				s.Put(key, []byte{byte(i)})
				if v, _, ok := s.Get(key); !ok || int(v[0]) > i {
					t.Errorf("lost write on %s", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		if v, _, _ := s.Get(fmt.Sprintf("k%d", w)); len(v) != 1 || v[0] != 199 {
			t.Fatalf("k%d = %v, want the last write", w, v)
		}
	}
}

func TestStoreQuickPutGetRoundTrip(t *testing.T) {
	f := func(key string, val []byte) bool {
		s := NewStore()
		s.Put(key, val)
		got, _, ok := s.Get(key)
		return ok && bytes.Equal(got, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Package pmap is a persistent ordered map: a B+-tree whose writes copy only
// the nodes on the written key's path, so a snapshot is a copy of the Map
// header and costs O(1), and the first write after it costs O(log n), not
// O(n). It is path copying as in Driscoll et al., "Making Data Structures
// Persistent" (JCSS 1989).
//
// Every node carries the Owner of the writer that made it. A write mutates
// the nodes its Owner made in place and copies the others, so a writer
// freezes everything reachable from a header it hands out by switching to a
// fresh Owner:
//
//	snap := m               // frozen from here on
//	owner = new(pmap.Owner) // the next write copies its path
//
// A Map held as a value inside another Map freezes with it, which is how
// posting sets stay frozen inside the index that holds them (SetIn,
// DeleteIn). A Map is not safe for concurrent writes; frozen copies are safe
// to read from any goroutine.
package pmap

import (
	"cmp"
	"iter"
	"slices"
	"sort"
)

// A leaf holds at most maxItems keys and an inner node at most maxKids
// children; a fuller node splits in two. The write after a snapshot copies
// one node per level, so small inner nodes keep each extra level cheap.
const (
	maxItems = 32
	maxKids  = 16
)

// Owner identifies one writer between two snapshots. It is not zero-sized,
// because new(struct{}) may return the same pointer every time.
type Owner struct{ _ byte }

// Map is a persistent ordered map. The zero value is an empty map. Copying a
// Map copies its header; see the package doc for when that freezes it.
type Map[K cmp.Ordered, V any] struct {
	root *node[K, V]
	n    int
}

// node is a leaf when its items hold values (kid == nil) and an inner node
// when they hold children; then every key under items[i].kid is below
// items[i+1].key and, for i > 0, at least items[i].key. No node is empty.
type node[K cmp.Ordered, V any] struct {
	owner *Owner
	items []item[K, V]
}

type item[K cmp.Ordered, V any] struct {
	key K
	val V
	kid *node[K, V]
}

// Len returns the number of keys.
func (m Map[K, V]) Len() int { return m.n }

// Get returns the value stored under k.
func (m Map[K, V]) Get(k K) (v V, ok bool) {
	for n := m.root; n != nil; {
		i, found := n.search(k)
		if n.items[0].kid == nil {
			if found {
				return n.items[i].val, true
			}
			break
		}
		n = n.items[i].kid
	}
	return v, false
}

// All yields every key and value in key order.
func (m Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) { m.root.all(yield) }
}

// Keys returns every key in order.
func (m Map[K, V]) Keys() []K {
	out := make([]K, 0, m.n)
	for k := range m.All() {
		out = append(out, k)
	}
	return out
}

// Set stores v under k as writer o.
func (m *Map[K, V]) Set(o *Owner, k K, v V) {
	root, right, added := m.root.set(o, k, v)
	if right != nil {
		root = newNode(o, []item[K, V]{{key: root.items[0].key, kid: root}, {key: right.items[0].key, kid: right}}, 0)
	}
	m.root = root
	m.n += added
}

// Delete removes k as writer o and returns the value it held, if any.
func (m *Map[K, V]) Delete(o *Owner, k K) (v V, ok bool) {
	if m.root == nil {
		return v, false
	}
	if m.root, v, ok = m.root.delete(o, k); ok {
		m.n--
	}
	return v, ok
}

// SetIn stores v under k2 in the map held under k1, creating it if absent.
func SetIn[K1, K2 cmp.Ordered, V any](o *Owner, m *Map[K1, Map[K2, V]], k1 K1, k2 K2, v V) {
	inner, _ := m.Get(k1)
	inner.Set(o, k2, v)
	m.Set(o, k1, inner)
}

// DeleteIn removes k2 from the map held under k1, and removes k1 when its
// map becomes empty.
func DeleteIn[K1, K2 cmp.Ordered, V any](o *Owner, m *Map[K1, Map[K2, V]], k1 K1, k2 K2) {
	inner, _ := m.Get(k1)
	switch _, ok := inner.Delete(o, k2); {
	case !ok:
	case inner.Len() == 0:
		m.Delete(o, k1)
	default:
		m.Set(o, k1, inner)
	}
}

// newNode returns a node owned by o holding a copy of items, with room for
// extra more. The node and its items are one allocation, in one of three
// sizes: most posting sets hold a few IDs.
func newNode[K cmp.Ordered, V any](o *Owner, items []item[K, V], extra int) *node[K, V] {
	var n *node[K, V]
	var buf []item[K, V]
	switch c := len(items) + extra; {
	case c <= 4:
		x := new(struct {
			n node[K, V]
			b [4]item[K, V]
		})
		n, buf = &x.n, x.b[:0]
	case c <= maxKids:
		x := new(struct {
			n node[K, V]
			b [maxKids]item[K, V]
		})
		n, buf = &x.n, x.b[:0]
	default:
		x := new(struct {
			n node[K, V]
			b [maxItems + 1]item[K, V]
		})
		n, buf = &x.n, x.b[:0]
	}
	*n = node[K, V]{o, append(buf, items...)}
	return n
}

// own returns n itself if o made it and it has room for extra more items,
// else a copy made by o. An outgrown node o made is garbage once replaced.
func (n *node[K, V]) own(o *Owner, extra int) *node[K, V] {
	if n.owner == o && cap(n.items)-len(n.items) >= extra {
		return n
	}
	return newNode(o, n.items, extra)
}

// search returns, in a leaf, the index of the first key not below k and
// whether that key is k; in an inner node, the index of the child covering k.
func (n *node[K, V]) search(k K) (int, bool) {
	first := 0
	if n.items[0].kid != nil {
		first = 1 // an inner node's first key bounds nothing
	}
	i := first + sort.Search(len(n.items)-first, func(h int) bool { return n.items[first+h].key >= k })
	found := i < len(n.items) && n.items[i].key == k
	if first == 1 && !found {
		i--
	}
	return i, found
}

// set stores v under k below n, which is nil in an empty map. It returns n's
// replacement, the right half when that overflowed and split, and 1 if k is
// new, else 0.
func (n *node[K, V]) set(o *Owner, k K, v V) (*node[K, V], *node[K, V], int) {
	if n == nil {
		return newNode(o, []item[K, V]{{key: k, val: v}}, 0), nil, 1
	}
	i, found := n.search(k)
	if n.items[0].kid == nil {
		if found {
			n = n.own(o, 0)
			n.items[i].val = v
			return n, nil, 0
		}
		n = n.own(o, 1)
		return n, n.insert(o, i, item[K, V]{key: k, val: v}), 1
	}
	kid, right, added := n.items[i].kid.set(o, k, v)
	if right == nil {
		if kid != n.items[i].kid {
			n = n.own(o, 0)
			n.items[i].kid = kid
		}
		return n, nil, added
	}
	n = n.own(o, 1)
	n.items[i].kid = kid
	return n, n.insert(o, i+1, item[K, V]{key: right.items[0].key, kid: right}), added
}

// insert puts it at index i of an owned node with room for it. If n then
// outgrows its limit, insert moves its upper half (or, when it went last,
// it alone) into a new right sibling and returns that.
func (n *node[K, V]) insert(o *Owner, i int, it item[K, V]) *node[K, V] {
	n.items = slices.Insert(n.items, i, it)
	if len(n.items) <= maxItems && (it.kid == nil || len(n.items) <= maxKids) {
		return nil
	}
	half := len(n.items)/2 + 1 // the right half fits a maxKids-sized node
	if i == len(n.items)-1 {
		half = i // an append (keys arriving in order) leaves n full
	}
	right := newNode(o, n.items[half:], 0)
	// Zero the moved tail: n's array still holds it, and a stale value there
	// would keep a replaced record alive.
	clear(n.items[half:])
	n.items = n.items[:half]
	return right
}

// delete removes k below n. It returns n's replacement, nil when n became
// empty, and the value k held, if any. Nodes, the root among them, may be
// left underfull.
func (n *node[K, V]) delete(o *Owner, k K) (_ *node[K, V], v V, ok bool) {
	i, found := n.search(k)
	if n.items[0].kid == nil {
		if !found {
			return n, v, false
		}
		v = n.items[i].val
	} else {
		kid := n.items[i].kid
		if kid, v, ok = kid.delete(o, k); !ok || kid == n.items[i].kid {
			return n, v, ok
		}
		if kid != nil {
			n = n.own(o, 0)
			n.items[i].kid = kid
			return n, v, true
		}
	}
	if len(n.items) == 1 {
		return nil, v, true
	}
	n = n.own(o, 0)
	n.items = slices.Delete(n.items, i, i+1) // zeroes the vacated tail item
	return n, v, true
}

// all yields the keys and values below n, which is nil in an empty map, and
// reports whether yield asked for more.
func (n *node[K, V]) all(yield func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for _, it := range n.items {
		if it.kid == nil && !yield(it.key, it.val) || it.kid != nil && !it.kid.all(yield) {
			return false
		}
	}
	return true
}

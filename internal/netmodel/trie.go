package netmodel

// Trie is a binary radix trie mapping IPv4 prefixes to values, supporting
// longest-prefix match. It is the lookup structure behind the IP-to-AS
// table: BGP RIB snapshots hold hundreds of thousands of prefixes and the
// pipeline performs one lookup per scanned IP address, so lookups must be
// allocation-free.
//
// The zero value is an empty trie ready to use. Trie is not safe for
// concurrent mutation; concurrent lookups without mutation are safe.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// Insert stores val under prefix, replacing any existing value for the
// exact same prefix. It reports whether the prefix was newly inserted.
func (t *Trie[V]) Insert(p Prefix, val V) bool {
	p = p.Canonical()
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for depth := 0; depth < int(p.Len); depth++ {
		bit := (p.Addr >> (31 - depth)) & 1
		if n.child[bit] == nil {
			n.child[bit] = &trieNode[V]{}
		}
		n = n.child[bit]
	}
	fresh := !n.set
	n.val, n.set = val, true
	if fresh {
		t.size++
	}
	return fresh
}

// Lookup returns the value of the longest prefix containing ip.
func (t *Trie[V]) Lookup(ip IP) (val V, ok bool) {
	n := t.root
	if n == nil {
		return val, false
	}
	if n.set {
		val, ok = n.val, true
	}
	for depth := 0; depth < 32 && n != nil; depth++ {
		bit := (ip >> (31 - depth)) & 1
		n = n.child[bit]
		if n != nil && n.set {
			val, ok = n.val, true
		}
	}
	return val, ok
}

// LookupPrefix returns the value and the matched prefix of the longest
// prefix containing ip.
func (t *Trie[V]) LookupPrefix(ip IP) (p Prefix, val V, ok bool) {
	n := t.root
	if n == nil {
		return Prefix{}, val, false
	}
	if n.set {
		p, val, ok = MakePrefix(ip, 0), n.val, true
	}
	for depth := 0; depth < 32 && n != nil; depth++ {
		bit := (ip >> (31 - depth)) & 1
		n = n.child[bit]
		if n != nil && n.set {
			p, val, ok = MakePrefix(ip, depth+1), n.val, true
		}
	}
	return p, val, ok
}

// Walk visits every stored prefix/value pair in address order. The walk
// stops early if fn returns false.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	var rec func(n *trieNode[V], addr IP, depth int) bool
	rec = func(n *trieNode[V], addr IP, depth int) bool {
		if n == nil {
			return true
		}
		if n.set {
			if !fn(Prefix{Addr: addr, Len: uint8(depth)}, n.val) {
				return false
			}
		}
		if !rec(n.child[0], addr, depth+1) {
			return false
		}
		return rec(n.child[1], addr|1<<(31-depth), depth+1)
	}
	rec(t.root, 0, 0)
}

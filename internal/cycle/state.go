package cycle

// StateKey returns a canonical encoding of the checker state, suitable for
// hashing in model-checking state spaces. Two checkers with the same key
// behave identically on all future inputs. Nodes are canonicalized by the
// smallest ID they hold, so internal slot numbers never leak.
func (c *Checker) StateKey() []byte {
	return c.StateKeyRenamed(nil)
}

// StateKeyRenamed returns the state key under an ID permutation (raw ID →
// canonical ID); see observer.CanonicalRename. A nil rename is the
// identity.
func (c *Checker) StateKeyRenamed(rename []int) []byte {
	return c.AppendStateKeyRenamed(make([]byte, 0, c.k+1+16), rename)
}

// AppendStateKeyRenamed appends StateKeyRenamed(rename) to dst without
// allocating (beyond growing dst) for up to 64 slots.
func (c *Checker) AppendStateKeyRenamed(dst []byte, rename []int) []byte {
	if c.rejected != nil {
		return append(dst, 0xff)
	}
	n := c.n
	var repBuf, orderBuf [64]int
	rep, order := repBuf[:0], orderBuf[:0]
	if n > len(repBuf) {
		rep, order = make([]int, 0, n), make([]int, 0, n)
	}
	// Representative per slot: the minimum renamed ID naming it.
	rep = rep[:n]
	clear(rep)
	for id := 1; id <= c.k+1; id++ {
		slot := c.owner[id]
		if slot < 0 {
			continue
		}
		m := id
		if rename != nil {
			m = rename[id]
		}
		if rep[slot] == 0 || m < rep[slot] {
			rep[slot] = m
		}
	}
	// ID ownership in canonical ID order: position i-1 holds the
	// representative of canonical ID i's node (0 when unbound).
	start := len(dst)
	for id := 1; id <= c.k+1; id++ {
		dst = append(dst, 0)
	}
	for id := 1; id <= c.k+1; id++ {
		if s := c.owner[id]; s >= 0 {
			m := id
			if rename != nil {
				m = rename[id]
			}
			dst[start+m-1] = byte(rep[s])
		}
	}
	// Edges as representative pairs in lexicographic order: visit slots
	// by representative (ties share a representative, so their relative
	// order cannot change the bytes) and emit each row in that order.
	for s := 0; s < n; s++ {
		i := len(order)
		order = append(order, s)
		for ; i > 0 && rep[order[i-1]] > rep[s]; i-- {
			order[i] = order[i-1]
		}
		order[i] = s
	}
	for _, f := range order {
		row := c.adj[f*n : (f+1)*n]
		for _, t := range order {
			if row[t] {
				dst = append(dst, byte(rep[f]), byte(rep[t]))
			}
		}
	}
	return dst
}

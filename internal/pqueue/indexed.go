// Package pqueue provides the priority-queue substrates used by the GEACC
// algorithms: an indexed min-heap with decrease-key for Dijkstra's shortest
// path search inside the min-cost-flow solver, and a de-duplicating max-heap
// of candidate (event, user) pairs for Greedy-GEACC's heap H (Algorithm 2).
package pqueue

// IndexedMinHeap is a binary min-heap over the integer keys [0, n) with
// float64 priorities and O(log n) DecreaseKey. Keys not currently in the
// heap occupy no slot. The zero value is not usable; call NewIndexedMinHeap.
type IndexedMinHeap struct {
	keys []int     // heap order: keys[0] has the smallest priority
	pos  []int     // pos[key] = index in keys, or -1 if absent
	prio []float64 // prio[key] = current priority of key
}

// NewIndexedMinHeap returns an empty heap over the key space [0, n).
func NewIndexedMinHeap(n int) *IndexedMinHeap {
	h := &IndexedMinHeap{
		keys: make([]int, 0, n),
		pos:  make([]int, n),
		prio: make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of keys currently in the heap.
func (h *IndexedMinHeap) Len() int { return len(h.keys) }

// Contains reports whether key is currently in the heap.
func (h *IndexedMinHeap) Contains(key int) bool { return h.pos[key] >= 0 }

// Priority returns the current priority of key. Meaningful only if the key
// is in the heap or was previously popped.
func (h *IndexedMinHeap) Priority(key int) float64 { return h.prio[key] }

// Push inserts key with the given priority. If the key is already present,
// Push behaves as DecreaseKey when the new priority is smaller and is a
// no-op otherwise, which is exactly the relaxation step Dijkstra needs.
func (h *IndexedMinHeap) Push(key int, priority float64) {
	if h.pos[key] >= 0 {
		h.DecreaseKey(key, priority)
		return
	}
	h.prio[key] = priority
	h.pos[key] = len(h.keys)
	h.keys = append(h.keys, key)
	h.up(len(h.keys) - 1)
}

// DecreaseKey lowers the priority of an in-heap key. Attempts to raise the
// priority are ignored.
func (h *IndexedMinHeap) DecreaseKey(key int, priority float64) {
	i := h.pos[key]
	if i < 0 || priority >= h.prio[key] {
		return
	}
	h.prio[key] = priority
	h.up(i)
}

// Pop removes and returns the key with the smallest priority. It panics on
// an empty heap.
func (h *IndexedMinHeap) Pop() (key int, priority float64) {
	key = h.keys[0]
	priority = h.prio[key]
	last := len(h.keys) - 1
	h.swap(0, last)
	h.keys = h.keys[:last]
	h.pos[key] = -1
	if last > 0 {
		h.down(0)
	}
	return key, priority
}

// Reset empties the heap without releasing its storage, so one allocation
// serves many Dijkstra runs.
func (h *IndexedMinHeap) Reset() {
	for _, k := range h.keys {
		h.pos[k] = -1
	}
	h.keys = h.keys[:0]
}

func (h *IndexedMinHeap) less(i, j int) bool {
	return h.prio[h.keys[i]] < h.prio[h.keys[j]]
}

func (h *IndexedMinHeap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i]] = i
	h.pos[h.keys[j]] = j
}

func (h *IndexedMinHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedMinHeap) down(i int) {
	n := len(h.keys)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

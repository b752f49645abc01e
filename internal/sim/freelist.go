package sim

// Freelist parks objects of one type between uses, the way the scheduler
// parks fired events: components that would otherwise allocate one per
// packet, per message or per slot take from it and give back. Single-
// threaded, like everything that hangs off one scheduler. The zero value is
// empty and ready.
type Freelist[T any] []*T

// Get returns a parked object, contents stale, or a fresh zero one when
// none is parked. The caller resets what it needs.
func (f *Freelist[T]) Get() *T {
	if n := len(*f); n > 0 {
		x := (*f)[n-1]
		(*f)[n-1] = nil
		*f = (*f)[:n-1]
		return x
	}
	return new(T)
}

// Put parks x for a later Get.
func (f *Freelist[T]) Put(x *T) { *f = append(*f, x) }

// Package pool is the fixture's generic pool, the shape of
// adaptivecast/internal/pool.
package pool

type Pool[T any] struct{}

func (p *Pool[T]) Get() *T  { return new(T) }
func (p *Pool[T]) Put(x *T) {}

// Package gpool is a generic pool imported by package a, the shape of
// adaptivecast/internal/pool.
package gpool

type Pool[T any] struct{ release func(*T) func() }

func (p *Pool[T]) Get() *T              { return new(T) }
func (p *Pool[T]) Put(x *T)             {}
func (p *Pool[T]) Releaser(x *T) func() { return p.release(x) }

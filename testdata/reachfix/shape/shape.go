// Package shape is the reachability scan's fixture: Square.Area is
// reached only through the Shape interface, and Unused is never called.
package shape

type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func New(side int) Shape { return Square{side} }

func Unused() int { return 0 }

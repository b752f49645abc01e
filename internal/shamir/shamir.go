// Package shamir implements Shamir's (k,n) threshold secret-sharing scheme
// over a prime field, as required by the DELTA instantiation for
// threshold-based multicast protocols (paper §3.1.2, equations 7–9).
//
// The sender picks a random polynomial q of degree k−1 with q(0) = key,
// and places the share (p, q(p)) into packet p of the subscription level.
// A receiver that obtains at least k of the n packets interpolates q and
// recovers the key as q(0); with fewer than k shares the key remains
// information-theoretically hidden. This lets a protocol like RLM or WEBRC
// declare a receiver "uncongested at level g" exactly when its loss rate at
// that level stays under 1 − k/n.
package shamir

import (
	"errors"
	"fmt"
)

// Prime is the field modulus: 2^31 − 1 (a Mersenne prime), comfortably
// larger than the 16-bit keys of the paper while keeping all arithmetic in
// uint64 without overflow.
const Prime uint64 = 1<<31 - 1

// Share is one point (X, q(X)) of the secret polynomial; X is never zero.
type Share struct {
	X uint32
	Y uint32
}

// ErrInsufficient reports reconstruction attempted with fewer shares than
// the threshold used at split time cannot be detected locally; this error is
// returned only for structurally invalid inputs (no shares, duplicates).
var ErrInsufficient = errors.New("shamir: not enough distinct shares")

// Splitter emits shares of secrets using externally supplied randomness so
// simulations stay deterministic.
type Splitter struct {
	next func() uint64
}

// NewSplitter returns a Splitter drawing coefficients from next.
func NewSplitter(next func() uint64) *Splitter {
	return &Splitter{next: next}
}

// Polynomial is a sampled secret polynomial; it can emit any number of
// shares, which is how the sender spreads one key over all n packets of a
// time slot without knowing n in advance.
type Polynomial struct {
	coeff []uint64 // coeff[0] = secret, degree k-1
}

// Sample picks a uniform polynomial of degree k−1 with q(0) = secret mod
// Prime. k must be at least 1.
func (s *Splitter) Sample(secret uint64, k int) (*Polynomial, error) {
	p := &Polynomial{}
	if err := s.Resample(p, secret, k); err != nil {
		return nil, err
	}
	return p, nil
}

// Resample is Sample into an existing polynomial, reusing its coefficient
// buffer: a sender that shares one key per level per slot keeps one
// Polynomial per level for the life of the session.
func (s *Splitter) Resample(p *Polynomial, secret uint64, k int) error {
	if k < 1 {
		return fmt.Errorf("shamir: threshold k=%d must be >= 1", k)
	}
	if cap(p.coeff) < k {
		p.coeff = make([]uint64, k)
	}
	p.coeff = p.coeff[:k]
	p.coeff[0] = secret % Prime
	for i := 1; i < k; i++ {
		p.coeff[i] = s.next() % Prime
	}
	return nil
}

// Threshold reports k, the number of shares needed for reconstruction.
func (p *Polynomial) Threshold() int { return len(p.coeff) }

// ShareAt evaluates the polynomial at x (x ≥ 1) and returns the share that
// packet number x carries. x = 0 would disclose the secret and panics.
func (p *Polynomial) ShareAt(x uint32) Share {
	if x == 0 {
		panic("shamir: share at x=0 would be the secret itself")
	}
	return Share{X: x, Y: uint32(p.eval(uint64(x)))}
}

// eval computes q(x) mod Prime by Horner's rule.
func (p *Polynomial) eval(x uint64) uint64 {
	x %= Prime
	var acc uint64
	for i := len(p.coeff) - 1; i >= 0; i-- {
		acc = (acc*x + p.coeff[i]) % Prime
	}
	return acc
}

// Reconstruct interpolates the unique degree ≤ len(shares)−1 polynomial
// through the given shares and returns its value at zero. When called with
// at least Threshold() genuine shares of one polynomial the result is the
// secret; with fewer, the result is an unrelated field element — exactly the
// security property DELTA relies on. Duplicate X coordinates are rejected.
func Reconstruct(shares []Share) (uint64, error) {
	if len(shares) == 0 {
		return 0, ErrInsufficient
	}
	for _, sh := range shares {
		if sh.X == 0 {
			return 0, fmt.Errorf("shamir: invalid share x=0")
		}
	}
	// Lagrange interpolation at x = 0:
	//   q(0) = Σ_i y_i · Π_{j≠i} x_j / (x_j − x_i)  (mod Prime)
	var secret uint64
	for i, si := range shares {
		num, den := uint64(1), uint64(1)
		xi := uint64(si.X) % Prime
		for j, sj := range shares {
			if j == i {
				continue
			}
			if sj.X == si.X {
				return 0, ErrInsufficient
			}
			xj := uint64(sj.X) % Prime
			num = num * xj % Prime
			den = den * ((xj + Prime - xi) % Prime) % Prime
		}
		term := uint64(si.Y) % Prime * num % Prime * modInverse(den) % Prime
		secret = (secret + term) % Prime
	}
	return secret, nil
}

// modInverse computes a^(Prime−2) mod Prime by Fermat's little theorem.
func modInverse(a uint64) uint64 {
	return modPow(a%Prime, Prime-2)
}

func modPow(base, exp uint64) uint64 {
	result := uint64(1)
	base %= Prime
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % Prime
		}
		base = base * base % Prime
		exp >>= 1
	}
	return result
}

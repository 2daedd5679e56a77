package shadow

import (
	"testing"

	"txsampler/internal/mem"
)

func BenchmarkObserve(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		m.Observe(i%8, mem.Addr(0x1000+uint64(i%512)*8), i%3 == 0, uint64(i)*10)
	}
}

package faults

// Support returns the word addresses fault f can touch on a memory of
// the given width, in ascending order, and how many there are (1 or
// 2): its own word for single-cell faults and for coupling faults
// whose aggressor shares the victim's word, both words for cross-word
// coupling faults, AFMap and AFMulti. Every cell outside its support
// holds the fault-free value in f's lane, whatever the stream does.
//
// SOF is the one kind whose behaviour still depends on other words:
// its port's sense latch holds whatever the previous read on that port
// sensed, wherever it was. A projected stream (Project) covers that
// with UOpSense.
func Support(f Fault, width int) (words [2]int32, n int) {
	var a, b int
	switch f.Kind {
	case CFin, CFid, CFst:
		a, b = f.Aggressor/width, f.Cell/width
	case AFNone:
		a, b = f.Addr, f.Addr
	case AFMap, AFMulti:
		a, b = f.Addr, f.AggAddr
	default:
		a, b = f.Cell/width, f.Cell/width
	}
	if a > b {
		a, b = b, a
	}
	if a == b {
		return [2]int32{int32(a)}, 1
	}
	return [2]int32{int32(a), int32(b)}, 2
}

// Localize renumbers f for a local memory whose address k stands for
// words[k]; words must include f's support.
func Localize(f Fault, width int, words []int32) Fault {
	local := func(addr int) int {
		if len(words) > 1 && int32(addr) == words[1] {
			return 1
		}
		return 0
	}
	switch f.Kind {
	case AFNone:
		f.Addr = local(f.Addr)
	case AFMap, AFMulti:
		f.Addr, f.AggAddr = local(f.Addr), local(f.AggAddr)
	case CFin, CFid, CFst:
		f.Aggressor = local(f.Aggressor/width)*width + f.Aggressor%width
		f.Cell = local(f.Cell/width)*width + f.Cell%width
	default:
		f.Cell = local(f.Cell/width)*width + f.Cell%width
	}
	return f
}

package durlog

// Window returns topic's current (epoch, floor, tail) under one lock.
func (l *Log) Window(topic string) (epoch, floor, tail uint64, ok bool) {
	t := l.lookup(topic)
	if t == nil {
		return 0, 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch, t.floor, t.tail, true
}

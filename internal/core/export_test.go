package core

// PairListRef exposes the pair list to the external tests.
func (c *CIAO) PairListRef() *PairList { return c.pairs }

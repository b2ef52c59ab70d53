module dedukt/bench

go 1.22

require dedukt v0.0.0

replace dedukt => ../

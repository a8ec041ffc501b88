module eternal/bench

go 1.23

require eternal v0.0.0

replace eternal => ../

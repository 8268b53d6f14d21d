module macroflow/cmd/bench

go 1.22

require macroflow v0.0.0

replace macroflow => ../..

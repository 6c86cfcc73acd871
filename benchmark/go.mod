module aqppp/benchmark

go 1.22

require aqppp v0.0.0

replace aqppp => ../

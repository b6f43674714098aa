module drqos/bench

go 1.22

require drqos v0.0.0

replace drqos => ../

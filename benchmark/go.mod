module mutps/benchmark

go 1.22

require mutps v0.0.0

replace mutps => ../

let helper x = x * 2
let twice x = helper x

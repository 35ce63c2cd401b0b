type 'msg t = { src : int; dst : int; msg : 'msg }

let make ~src ~dst msg = { src; dst; msg }

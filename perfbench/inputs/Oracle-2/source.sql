CREATE TABLE Product (
    pid INTEGER PRIMARY KEY,
    pname VARCHAR(255),
    price INTEGER,
    descr VARCHAR(255),
    image BLOB,
    weight INTEGER
);
CREATE TABLE Orders (
    oid INTEGER PRIMARY KEY,
    pid INTEGER,
    quantity INTEGER,
    total INTEGER,
    shipStreet VARCHAR(255),
    shipCity VARCHAR(255)
);
CREATE TABLE Customer (
    cid INTEGER PRIMARY KEY,
    cname VARCHAR(255),
    email VARCHAR(255),
    phone VARCHAR(255),
    street VARCHAR(255)
);
